package service

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/topology"
)

// TestServiceMatchesDirectSparse replays one seeded sequence of places,
// releases, grows and shrinks through a Service with its queue disabled
// and, in lockstep, through the direct sparse calls on a twin inventory
// with its own tier index: PlaceSparse, PlaceDeltaSparse and
// ReleaseSubsetSparse, committed with AllocateList and ReleaseList. Many
// of the ops do not fit. After every op both sides must agree on the
// entries, the DC, the center and whether the op failed with
// ErrInsufficient; at the end the two inventories must hold the same
// remaining capacity and pass their invariant and index checks. The
// service must change who commits, never what is committed.
//
// The service reports to an obs registry: its placed, released, grown,
// shrunk and rejected counters must equal its Stats and the direct
// side's own tallies, and a second run of the seed must give a
// byte-identical metric snapshot and trace.
func TestServiceMatchesDirectSparse(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		first := serveAgainstDirect(t, seed)
		if again := serveAgainstDirect(t, seed); !bytes.Equal(first, again) {
			t.Fatalf("seed %d: a second run gave a different metric snapshot or trace", seed)
		}
	}
}

// serveAgainstDirect runs one seed of TestServiceMatchesDirectSparse and
// returns the service registry's metric snapshot and trace.
func serveAgainstDirect(t *testing.T, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	topo := topology.PaperSimPlant()
	m := 2 + rng.Intn(2)
	caps := make([][]int, topo.Nodes())
	for i := range caps {
		caps[i] = make([]int, m)
		for j := range caps[i] {
			caps[i][j] = rng.Intn(4)
		}
	}
	svcInv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		t.Fatal(err)
	}
	dirInv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	reg := obs.NewStreamingRegistry(&trace)
	svc, err := New(Config{Topology: topo, Inventory: svcInv, QueueCap: -1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	tidx, err := dirInv.AttachTierIndex(topo)
	if err != nil {
		t.Fatal(err)
	}
	d := directTwin{topo: topo, inv: dirInv, tidx: tidx, h: &placement.OnlineHeuristic{}}

	// Each live cluster as each side records it.
	type cluster struct{ svc, dir []affinity.VMEntry }
	var live []*cluster
	// The direct side's tallies, and its refused places and grows.
	var placed, released, grown, shrunk, rejected, misses int64
	request := func(scale int) model.Request {
		r := make(model.Request, m)
		for r.IsZero() {
			for j := range r {
				r[j] = rng.Intn(scale)
			}
		}
		return r
	}
	for step := 0; step < 200; step++ {
		var op string
		var got, want Placement
		var gotErr, wantErr error
		switch k := rng.Intn(20); {
		case k < 8 || len(live) == 0:
			op = "place"
			r := request(8)
			got, gotErr = svc.Place(r)
			want, wantErr = d.place(r)
			if gotErr == nil && wantErr == nil {
				live = append(live, &cluster{svc: got.Entries, dir: want.Entries})
			}
		case k < 11:
			op = "release"
			i := rng.Intn(len(live))
			c := live[i]
			live = append(live[:i], live[i+1:]...)
			gotErr = svc.Release(c.svc)
			wantErr = dirInv.ReleaseList(c.dir)
		case k < 16:
			op = "grow"
			c := live[rng.Intn(len(live))]
			delta := request(5)
			got, gotErr = svc.Grow(c.svc, delta)
			want, wantErr = d.grow(c.dir, delta)
			if gotErr == nil && wantErr == nil {
				c.svc = mergeEntries(c.svc, got.Entries)
				c.dir = mergeEntries(c.dir, want.Entries)
			}
		default:
			op = "shrink"
			c := live[rng.Intn(len(live))]
			delta := make(model.Request, m)
			for _, e := range c.dir {
				delta[e.Type] += e.Count
			}
			for j := range delta {
				// Mostly a part of what the cluster holds; now and then
				// one VM more, which both sides must refuse.
				if rng.Intn(8) == 0 {
					delta[j]++
				} else {
					delta[j] = rng.Intn(delta[j] + 1)
				}
			}
			got.Entries, gotErr = svc.Shrink(c.svc, delta)
			want.Entries, wantErr = d.shrink(c.dir, delta)
			if gotErr == nil && wantErr == nil {
				c.svc = subtractEntries(c.svc, got.Entries)
				c.dir = subtractEntries(c.dir, want.Entries)
			}
		}
		if (gotErr == nil) != (wantErr == nil) ||
			errors.Is(gotErr, placement.ErrInsufficient) != errors.Is(wantErr, placement.ErrInsufficient) {
			t.Fatalf("seed %d step %d %s: service err %v, direct err %v", seed, step, op, gotErr, wantErr)
		}
		if errors.Is(wantErr, placement.ErrInsufficient) {
			misses++
			if op == "place" {
				rejected++
			}
		} else if wantErr == nil {
			switch op {
			case "place":
				placed++
			case "release":
				released++
			case "grow":
				grown++
			default:
				shrunk++
			}
		}
		if !reflect.DeepEqual(got.Entries, want.Entries) || got.DC != want.DC || got.Center != want.Center {
			t.Fatalf("seed %d step %d %s: service (%v, DC %v, center %d), direct (%v, DC %v, center %d)",
				seed, step, op, got.Entries, got.DC, got.Center, want.Entries, want.DC, want.Center)
		}
	}
	if placed+grown == 0 || misses == 0 {
		t.Fatalf("seed %d: degenerate sequence: %d fitting and %d refused places and grows", seed, placed+grown, misses)
	}
	if !reflect.DeepEqual(svcInv.Remaining(), dirInv.Remaining()) {
		t.Fatalf("seed %d: remaining capacity diverged\nservice %v\ndirect  %v", seed, svcInv.Remaining(), dirInv.Remaining())
	}
	for _, inv := range []*inventory.Inventory{svcInv, dirInv} {
		if err := inv.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: inventory: %v", seed, err)
		}
		if err := inv.TierIndex().CheckConsistent(); err != nil {
			t.Fatalf("seed %d: tier index: %v", seed, err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	counters := reg.Snapshot().Counters
	for _, c := range []struct {
		name   string
		stat   uint64
		direct int64
	}{
		{"service.placed", st.Placed, placed},
		{"service.released", st.Released, released},
		{"service.grown", st.Grown, grown},
		{"service.shrunk", st.Shrunk, shrunk},
		{"service.rejected", st.Rejected, rejected},
	} {
		if counters[c.name] != c.direct || int64(c.stat) != c.direct {
			t.Fatalf("seed %d: %s reads %d, Stats %d, direct side %d", seed, c.name, counters[c.name], c.stat, c.direct)
		}
	}
	var out bytes.Buffer
	if err := reg.WriteMetricsJSON(&out); err != nil {
		t.Fatal(err)
	}
	out.Write(trace.Bytes())
	return out.Bytes()
}

// directTwin applies the service's ops as direct sparse calls on an
// inventory with an attached tier index, answering in the service's
// terms.
type directTwin struct {
	topo *topology.Topology
	inv  *inventory.Inventory
	tidx *affinity.TierIndex
	h    *placement.OnlineHeuristic
	sp   affinity.SparseAlloc
}

func (d *directTwin) place(r model.Request) (Placement, error) {
	dc, center, err := d.h.PlaceSparse(d.tidx, r, &d.sp)
	return d.commit(dc, center, err)
}

func (d *directTwin) grow(cur []affinity.VMEntry, delta model.Request) (Placement, error) {
	dc, center, err := d.h.PlaceDeltaSparse(d.tidx, cur, delta, &d.sp)
	return d.commit(dc, center, err)
}

func (d *directTwin) commit(dc float64, center topology.NodeID, err error) (Placement, error) {
	if err == nil {
		err = d.inv.AllocateList(d.sp.Entries)
	}
	if err != nil {
		return Placement{}, err
	}
	return Placement{Entries: append([]affinity.VMEntry(nil), d.sp.Entries...), DC: dc, Center: center}, nil
}

func (d *directTwin) shrink(cur []affinity.VMEntry, delta model.Request) ([]affinity.VMEntry, error) {
	victims, err := d.h.ReleaseSubsetSparse(d.topo, cur, delta)
	if err == nil {
		err = d.inv.ReleaseList(victims)
	}
	if err != nil {
		return nil, err
	}
	return victims, nil
}
