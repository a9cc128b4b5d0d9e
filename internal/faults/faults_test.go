package faults

import (
	"reflect"
	"testing"

	"affinitycluster/internal/topology"
)

func testPlant(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.Uniform(1, 3, 10, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func cfg() Config {
	return Config{MTBF: 100, MTTR: 50, Horizon: 1000, RackEvery: 3}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("disabled config rejected: %v", err)
	}
	bad := []Config{
		{MTBF: 10},                        // no MTTR
		{MTBF: 10, MTTR: -1, Horizon: 10}, // negative MTTR
		{MTBF: 10, MTTR: 5},               // no horizon
		{MTBF: 10, MTTR: 5, Horizon: 10, RackEvery: -1},
		{MTBF: 1e-300, MTTR: 5, Horizon: 250},                // ~2.5e302 expected draws
		{MTBF: 1, MTTR: 5, Horizon: maxExpectedFailures + 1}, // just over the cap
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	if err := (Config{MTBF: 1, MTTR: 5, Horizon: maxExpectedFailures}).Validate(); err != nil {
		t.Errorf("config at the cap rejected: %v", err)
	}
}

func TestPlanDeterministic(t *testing.T) {
	tp := testPlant(t)
	a, err := Plan(7, tp, cfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(7, tp, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different plans")
	}
	c, err := Plan(8, tp, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical plans (suspicious)")
	}
	if len(a) == 0 {
		t.Fatal("plan is empty; tune the test config")
	}
}

func TestPlanPairsCrashesWithRepairs(t *testing.T) {
	tp := testPlant(t)
	plan, err := Plan(42, tp, cfg())
	if err != nil {
		t.Fatal(err)
	}
	crashes := map[int]Event{}
	repairs := map[int]Event{}
	for _, ev := range plan {
		if ev.Kind == Repair {
			repairs[ev.FailureID] = ev
		} else {
			crashes[ev.FailureID] = ev
		}
	}
	if len(crashes) == 0 || len(crashes) != len(repairs) {
		t.Fatalf("crashes %d, repairs %d", len(crashes), len(repairs))
	}
	for id, c := range crashes {
		r, ok := repairs[id]
		if !ok {
			t.Fatalf("failure %d has no repair", id)
		}
		if r.Time <= c.Time {
			t.Errorf("failure %d repaired at %v before crash at %v", id, r.Time, c.Time)
		}
		if !reflect.DeepEqual(r.Nodes, c.Nodes) {
			t.Errorf("failure %d repair nodes %v != crash nodes %v", id, r.Nodes, c.Nodes)
		}
	}
}

// No node may crash while already down: crash intervals of one node must
// not overlap.
func TestPlanNoOverlappingFailuresPerNode(t *testing.T) {
	tp := testPlant(t)
	c := cfg()
	c.MTBF = 20 // dense failures to stress overlap handling
	plan, err := Plan(3, tp, c)
	if err != nil {
		t.Fatal(err)
	}
	downUntil := map[topology.NodeID]float64{}
	for _, ev := range plan {
		if ev.Kind == Repair {
			continue
		}
		repair := findRepair(t, plan, ev.FailureID)
		for _, n := range ev.Nodes {
			if ev.Time < downUntil[n] {
				t.Fatalf("node %d crashes at %v while down until %v", n, ev.Time, downUntil[n])
			}
			downUntil[n] = repair.Time
		}
	}
}

func findRepair(t *testing.T, plan []Event, id int) Event {
	t.Helper()
	for _, ev := range plan {
		if ev.Kind == Repair && ev.FailureID == id {
			return ev
		}
	}
	t.Fatalf("no repair for failure %d", id)
	return Event{}
}

func TestPlanRackOutagesStayInOneRack(t *testing.T) {
	tp := testPlant(t)
	plan, err := Plan(11, tp, cfg())
	if err != nil {
		t.Fatal(err)
	}
	sawRack := false
	for _, ev := range plan {
		switch ev.Kind {
		case RackOutage:
			sawRack = true
			if ev.Rack < 0 {
				t.Error("rack outage with no rack")
			}
			for _, n := range ev.Nodes {
				if tp.RackOf(n) != ev.Rack {
					t.Errorf("outage of rack %d includes node %d of rack %d", ev.Rack, n, tp.RackOf(n))
				}
			}
		case NodeCrash:
			if len(ev.Nodes) != 1 || ev.Rack != -1 {
				t.Errorf("node crash shape wrong: %+v", ev)
			}
		}
	}
	if !sawRack {
		t.Error("RackEvery=3 produced no rack outage; tune the test config")
	}
	if Failures(plan) == 0 {
		t.Error("no failures counted")
	}
}

func TestPlanHorizon(t *testing.T) {
	tp := testPlant(t)
	c := cfg()
	plan, err := Plan(5, tp, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range plan {
		if ev.Kind != Repair && ev.Time > c.Horizon {
			t.Errorf("failure at %v beyond horizon %v", ev.Time, c.Horizon)
		}
	}
	if plan2, _ := Plan(5, tp, Config{}); plan2 != nil {
		t.Error("disabled config produced a plan")
	}
}
