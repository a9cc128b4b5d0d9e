package dfs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/vcluster"
)

// cluster builds an 8-VM cluster spread over two racks: 2 VMs on each of
// nodes 0,1 (rack 0) and 2,3 (rack 1).
func cluster(t *testing.T) *vcluster.Cluster {
	t.Helper()
	tp, err := topology.Uniform(1, 2, 2, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	a := affinity.Allocation{{2, 0}, {2, 0}, {2, 0}, {2, 0}}
	c, err := vcluster.FromAllocation(tp, a)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadConfig(t *testing.T) {
	c := cluster(t)
	if _, err := New(c, Config{BlockMB: 0, Replication: 3}); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := New(c, Config{BlockMB: 64, Replication: 0}); err == nil {
		t.Error("zero replication accepted")
	}
}

func TestWriteSplitsIntoBlocks(t *testing.T) {
	c := cluster(t)
	fs, err := New(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ids, err := fs.Write("input", 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 200 MB / 64 MB = 3 full + 8 MB remainder = 4 blocks.
	if len(ids) != 4 {
		t.Fatalf("blocks = %d, want 4", len(ids))
	}
	last, err := fs.Block(ids[3])
	if err != nil {
		t.Fatal(err)
	}
	if last.SizeMB != 8 {
		t.Errorf("last block size = %v, want 8", last.SizeMB)
	}
	got, err := fs.Blocks("input")
	if err != nil || len(got) != 4 {
		t.Errorf("Blocks() = %v, %v", got, err)
	}
}

func TestWriteErrors(t *testing.T) {
	c := cluster(t)
	fs, _ := New(c, DefaultConfig())
	if _, err := fs.Write("f", 0, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := fs.Write("f", 10, 99); err == nil {
		t.Error("bad writer accepted")
	}
	if _, err := fs.Write("f", 10, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("f", 10, 0); err == nil {
		t.Error("duplicate file accepted")
	}
	if _, err := fs.Blocks("missing"); err == nil {
		t.Error("missing file lookup succeeded")
	}
	if _, err := fs.Block(999); err == nil {
		t.Error("bad block lookup succeeded")
	}
}

func TestReplicaPolicy(t *testing.T) {
	c := cluster(t)
	fs, _ := New(c, DefaultConfig())
	ids, err := fs.Write("input", 640, 0) // 10 blocks, writer VM 0 (rack 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		b, _ := fs.Block(id)
		if len(b.Replicas) != 3 {
			t.Fatalf("block %d has %d replicas", id, len(b.Replicas))
		}
		if b.Replicas[0] != 0 {
			t.Errorf("block %d first replica on VM %d, want writer 0", id, b.Replicas[0])
		}
		// Replica 2 must be in a different rack from the writer.
		if c.SameRack(b.Replicas[0], b.Replicas[1]) {
			t.Errorf("block %d second replica co-racked with writer", id)
		}
		// Replica 3 must share replica 2's rack.
		if !c.SameRack(b.Replicas[1], b.Replicas[2]) {
			t.Errorf("block %d third replica not co-racked with second", id)
		}
		// All distinct.
		seen := map[vcluster.VMID]bool{}
		for _, r := range b.Replicas {
			if seen[r] {
				t.Fatalf("block %d has duplicate replica %d", id, r)
			}
			seen[r] = true
		}
	}
}

func TestReplicationCappedByClusterSize(t *testing.T) {
	tp, err := topology.Uniform(1, 1, 1, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	a := affinity.Allocation{{2, 0}}
	c, err := vcluster.FromAllocation(tp, a)
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := New(c, Config{BlockMB: 64, Replication: 5, Seed: 1})
	ids, err := fs.Write("f", 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := fs.Block(ids[0])
	if len(b.Replicas) != 2 {
		t.Errorf("replicas = %d, want 2 (cluster size)", len(b.Replicas))
	}
}

func TestNearestReplicaAndLocality(t *testing.T) {
	c := cluster(t)
	fs, _ := New(c, DefaultConfig())
	ids, _ := fs.Write("input", 64, 0)
	id := ids[0]
	// Reader VM 0 holds the replica: node-local.
	if _, loc, err := fs.NearestReplica(id, 0); err != nil || loc != NodeLocal {
		t.Errorf("reader 0 locality = %v (%v)", loc, err)
	}
	// Reader VM 1 shares node 0 with VM 0: node-local too.
	if _, loc, _ := fs.NearestReplica(id, 1); loc != NodeLocal {
		t.Errorf("reader 1 locality = %v, want node-local", loc)
	}
	if !fs.HasLocalReplica(id, 1) {
		t.Error("HasLocalReplica(1) = false")
	}
	if fs.HasLocalReplica(999, 0) {
		t.Error("HasLocalReplica on bad block = true")
	}
	if _, _, err := fs.NearestReplica(999, 0); err == nil {
		t.Error("NearestReplica on bad block succeeded")
	}
	locals := fs.VMsWithReplica(id)
	if len(locals) < 3 {
		t.Errorf("VMsWithReplica = %v", locals)
	}
	if fs.VMsWithReplica(999) != nil {
		t.Error("VMsWithReplica on bad block non-nil")
	}
}

func TestLocalityString(t *testing.T) {
	if NodeLocal.String() != "node-local" || RackLocal.String() != "rack-local" || Remote.String() != "remote" {
		t.Error("Locality strings wrong")
	}
}

func TestSingleRackClusterAllRackLocal(t *testing.T) {
	// All VMs in one rack: replica 2 cannot go off-rack; the policy falls
	// back gracefully and every read is node- or rack-local.
	tp, err := topology.Uniform(1, 1, 4, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	a := affinity.Allocation{{1, 0}, {1, 0}, {1, 0}, {1, 0}}
	c, err := vcluster.FromAllocation(tp, a)
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := New(c, DefaultConfig())
	ids, err := fs.Write("f", 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		for v := 0; v < c.Size(); v++ {
			_, loc, err := fs.NearestReplica(id, vcluster.VMID(v))
			if err != nil {
				t.Fatal(err)
			}
			if loc == Remote {
				t.Errorf("block %d reader %d remote in single-rack cluster", id, v)
			}
		}
	}
}

// Property: replica invariants hold for random cluster shapes and writers:
// correct count (min(replication, size)), all distinct, first on writer.
func TestQuickReplicaInvariants(t *testing.T) {
	tp, err := topology.Uniform(1, 3, 3, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := affinity.NewAllocation(tp.Nodes(), 1)
		vms := 1 + r.Intn(8)
		for v := 0; v < vms; v++ {
			a[r.Intn(tp.Nodes())][0]++
		}
		c, err := vcluster.FromAllocation(tp, a)
		if err != nil {
			return false
		}
		fs, err := New(c, Config{BlockMB: 64, Replication: 3, Seed: seed})
		if err != nil {
			return false
		}
		writer := vcluster.VMID(r.Intn(c.Size()))
		ids, err := fs.Write("f", 64*float64(1+r.Intn(5)), writer)
		if err != nil {
			return false
		}
		want := 3
		if c.Size() < want {
			want = c.Size()
		}
		for _, id := range ids {
			b, err := fs.Block(id)
			if err != nil {
				return false
			}
			if len(b.Replicas) != want || b.Replicas[0] != writer {
				return false
			}
			seen := map[vcluster.VMID]bool{}
			for _, rep := range b.Replicas {
				if seen[rep] || int(rep) >= c.Size() {
					return false
				}
				seen[rep] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
