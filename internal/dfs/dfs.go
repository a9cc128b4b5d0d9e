// Package dfs simulates the distributed file system underneath the
// MapReduce jobs of the paper's experiments (Section V.B): files are
// split into fixed-size blocks, each block is replicated across the
// virtual cluster's VMs with the rack-aware policy HDFS uses by default
// (first replica on the writer, second on a different rack, third
// co-racked with the second), and readers locate the nearest replica to
// decide whether a map task is data-local, rack-local, or remote.
package dfs

import (
	"fmt"
	"math/rand"

	"affinitycluster/internal/vcluster"
)

// Locality classifies how close a reader VM is to a block replica —
// exactly the categories of the paper's Fig. 8.
type Locality int

const (
	// NodeLocal: a replica lives on the reader's VM (or a co-located VM).
	NodeLocal Locality = iota
	// RackLocal: the nearest replica is in the reader's rack.
	RackLocal
	// Remote: every replica is in another rack (or cloud).
	Remote
)

func (l Locality) String() string {
	switch l {
	case NodeLocal:
		return "node-local"
	case RackLocal:
		return "rack-local"
	default:
		return "remote"
	}
}

// BlockID identifies one block within a file system.
type BlockID int

// Block is one replicated chunk of a file.
type Block struct {
	ID       BlockID
	File     string
	SizeMB   float64
	Replicas []vcluster.VMID // distinct VMs holding a copy
}

// FS is a simulated distributed file system over one virtual cluster.
type FS struct {
	cluster     *vcluster.Cluster
	blockMB     float64
	replication int
	rng         *rand.Rand
	blocks      []Block
	files       map[string][]BlockID
}

// Config parameterizes a file system.
type Config struct {
	// BlockMB is the block size (Hadoop default era: 64 MB).
	BlockMB float64
	// Replication is the target replica count (HDFS default 3); it is
	// capped at the number of distinct VMs.
	Replication int
	// Seed drives replica placement randomness.
	Seed int64
}

// DefaultConfig mirrors a 2012 Hadoop deployment: 64 MB blocks,
// replication 3.
func DefaultConfig() Config {
	return Config{BlockMB: 64, Replication: 3, Seed: 1}
}

// New creates an empty file system over the cluster.
func New(c *vcluster.Cluster, cfg Config) (*FS, error) {
	if cfg.BlockMB <= 0 {
		return nil, fmt.Errorf("dfs: block size must be positive, got %v", cfg.BlockMB)
	}
	if cfg.Replication <= 0 {
		return nil, fmt.Errorf("dfs: replication must be positive, got %d", cfg.Replication)
	}
	return &FS{
		cluster:     c,
		blockMB:     cfg.BlockMB,
		replication: cfg.Replication,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		files:       make(map[string][]BlockID),
	}, nil
}

// Write stores a file of the given size, splitting it into blocks and
// placing replicas with the rack-aware policy. writer is the VM producing
// the data (its node receives the first replica, modelling HDFS's
// write-local behaviour). It returns the new blocks' IDs.
func (fs *FS) Write(name string, sizeMB float64, writer vcluster.VMID) ([]BlockID, error) {
	if sizeMB <= 0 {
		return nil, fmt.Errorf("dfs: file size must be positive, got %v", sizeMB)
	}
	if _, exists := fs.files[name]; exists {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	if int(writer) < 0 || int(writer) >= fs.cluster.Size() {
		return nil, fmt.Errorf("dfs: writer VM %d out of range [0,%d)", writer, fs.cluster.Size())
	}
	var ids []BlockID
	remaining := sizeMB
	for remaining > 0 {
		size := fs.blockMB
		if remaining < size {
			size = remaining
		}
		id := BlockID(len(fs.blocks))
		fs.blocks = append(fs.blocks, Block{
			ID:       id,
			File:     name,
			SizeMB:   size,
			Replicas: fs.placeReplicas(writer),
		})
		ids = append(ids, id)
		remaining -= size
	}
	fs.files[name] = ids
	// Return a copy: ids is now the file table's entry, and a caller
	// mutating the returned slice must not corrupt it (aliasret).
	return append([]BlockID(nil), ids...), nil
}

// WriteRotating stores a file like Write but rotates the first replica's
// holder round-robin across all VMs, block by block. This models a
// dataset bulk-loaded into the cluster (each DataNode ingesting a share)
// rather than produced by a single writer — the steady state a MapReduce
// input normally starts from, with block ownership balanced across the
// cluster.
func (fs *FS) WriteRotating(name string, sizeMB float64) ([]BlockID, error) {
	if sizeMB <= 0 {
		return nil, fmt.Errorf("dfs: file size must be positive, got %v", sizeMB)
	}
	if _, exists := fs.files[name]; exists {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	var ids []BlockID
	remaining := sizeMB
	writer := 0
	for remaining > 0 {
		size := fs.blockMB
		if remaining < size {
			size = remaining
		}
		id := BlockID(len(fs.blocks))
		fs.blocks = append(fs.blocks, Block{
			ID:       id,
			File:     name,
			SizeMB:   size,
			Replicas: fs.placeReplicas(vcluster.VMID(writer)),
		})
		ids = append(ids, id)
		remaining -= size
		writer = (writer + 1) % fs.cluster.Size()
	}
	fs.files[name] = ids
	// Same copy-on-return contract as Write: the stored entry must not
	// be reachable through the return value.
	return append([]BlockID(nil), ids...), nil
}

// placeReplicas implements the rack-aware policy: replica 1 on the
// writer; replica 2 on a VM in a different rack if one exists; replica 3
// in the same rack as replica 2; further replicas random. All replicas
// land on distinct VMs; the count is capped by cluster size.
func (fs *FS) placeReplicas(writer vcluster.VMID) []vcluster.VMID {
	n := fs.cluster.Size()
	want := fs.replication
	if want > n {
		want = n
	}
	used := map[vcluster.VMID]bool{writer: true}
	replicas := []vcluster.VMID{writer}

	pick := func(filter func(vcluster.VMID) bool) (vcluster.VMID, bool) {
		var candidates []vcluster.VMID
		for v := 0; v < n; v++ {
			id := vcluster.VMID(v)
			if !used[id] && (filter == nil || filter(id)) {
				candidates = append(candidates, id)
			}
		}
		if len(candidates) == 0 {
			return 0, false
		}
		return candidates[fs.rng.Intn(len(candidates))], true
	}

	// Replica 2: different rack from the writer when possible.
	if len(replicas) < want {
		id, ok := pick(func(v vcluster.VMID) bool { return !fs.cluster.SameRack(v, writer) })
		if !ok {
			id, ok = pick(nil)
		}
		if ok {
			used[id] = true
			replicas = append(replicas, id)
		}
	}
	// Replica 3: same rack as replica 2 when possible.
	if len(replicas) < want && len(replicas) >= 2 {
		second := replicas[1]
		id, ok := pick(func(v vcluster.VMID) bool { return fs.cluster.SameRack(v, second) })
		if !ok {
			id, ok = pick(nil)
		}
		if ok {
			used[id] = true
			replicas = append(replicas, id)
		}
	}
	// Remaining replicas: anywhere.
	for len(replicas) < want {
		id, ok := pick(nil)
		if !ok {
			break
		}
		used[id] = true
		replicas = append(replicas, id)
	}
	return replicas
}

// Blocks returns the block IDs of a file in order.
func (fs *FS) Blocks(name string) ([]BlockID, error) {
	ids, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: file %q not found", name)
	}
	return append([]BlockID(nil), ids...), nil
}

// Block returns a block's metadata.
func (fs *FS) Block(id BlockID) (Block, error) {
	if int(id) < 0 || int(id) >= len(fs.blocks) {
		return Block{}, fmt.Errorf("dfs: block %d out of range", id)
	}
	b := fs.blocks[id]
	b.Replicas = append([]vcluster.VMID(nil), b.Replicas...)
	return b, nil
}

// NearestReplica returns the replica closest to the reader VM and its
// locality class. Ties prefer the lowest VM ID for determinism.
func (fs *FS) NearestReplica(id BlockID, reader vcluster.VMID) (vcluster.VMID, Locality, error) {
	if int(id) < 0 || int(id) >= len(fs.blocks) {
		return 0, Remote, fmt.Errorf("dfs: block %d out of range", id)
	}
	b := fs.blocks[id]
	best := b.Replicas[0]
	bestD := fs.cluster.Distance(reader, best)
	for _, r := range b.Replicas[1:] {
		if d := fs.cluster.Distance(reader, r); d < bestD {
			best, bestD = r, d
		}
	}
	return best, fs.classify(reader, best), nil
}

// classify maps a reader/replica pair to its locality class.
func (fs *FS) classify(reader, replica vcluster.VMID) Locality {
	switch {
	case fs.cluster.SameNode(reader, replica):
		return NodeLocal
	case fs.cluster.SameRack(reader, replica):
		return RackLocal
	default:
		return Remote
	}
}

// HasLocalReplica reports whether the reader's node holds a replica.
func (fs *FS) HasLocalReplica(id BlockID, reader vcluster.VMID) bool {
	if int(id) < 0 || int(id) >= len(fs.blocks) {
		return false
	}
	for _, r := range fs.blocks[id].Replicas {
		if fs.cluster.SameNode(reader, r) {
			return true
		}
	}
	return false
}

// VMsWithReplica returns the readers for which the block is node-local.
func (fs *FS) VMsWithReplica(id BlockID) []vcluster.VMID {
	if int(id) < 0 || int(id) >= len(fs.blocks) {
		return nil
	}
	seen := make(map[vcluster.VMID]bool)
	var out []vcluster.VMID
	for v := 0; v < fs.cluster.Size(); v++ {
		reader := vcluster.VMID(v)
		if fs.HasLocalReplica(id, reader) && !seen[reader] {
			seen[reader] = true
			out = append(out, reader)
		}
	}
	return out
}

// TotalBlocks returns the number of blocks stored.
func (fs *FS) TotalBlocks() int { return len(fs.blocks) }
