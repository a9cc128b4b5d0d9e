package workload

import (
	"math"
	"testing"

	"affinitycluster/internal/model"
)

func TestRandomCapacitiesShapeAndDeterminism(t *testing.T) {
	m1, err := RandomCapacities(7, 30, 3, DefaultInventoryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != 30 || len(m1[0]) != 3 {
		t.Fatalf("shape = %dx%d", len(m1), len(m1[0]))
	}
	m2, _ := RandomCapacities(7, 30, 3, DefaultInventoryConfig())
	for i := range m1 {
		for j := range m1[i] {
			if m1[i][j] != m2[i][j] {
				t.Fatal("same seed produced different capacities")
			}
			if m1[i][j] < 0 || m1[i][j] > DefaultInventoryConfig().MaxPerType {
				t.Fatalf("capacity %d out of range", m1[i][j])
			}
		}
	}
	m3, _ := RandomCapacities(8, 30, 3, DefaultInventoryConfig())
	same := true
	for i := range m1 {
		for j := range m1[i] {
			if m1[i][j] != m3[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical capacities")
	}
}

func TestRandomCapacitiesErrors(t *testing.T) {
	if _, err := RandomCapacities(1, 0, 3, DefaultInventoryConfig()); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := RandomCapacities(1, 3, 0, DefaultInventoryConfig()); err == nil {
		t.Error("zero types accepted")
	}
	if _, err := RandomCapacities(1, 3, 3, InventoryConfig{MaxPerType: -1}); err == nil {
		t.Error("negative max accepted")
	}
}

func TestRandomRequestsNormal(t *testing.T) {
	reqs, err := RandomRequests(5, 20, 3, Normal, DefaultRequestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 20 {
		t.Fatalf("count = %d", len(reqs))
	}
	for i, r := range reqs {
		if r.IsZero() {
			t.Errorf("request %d is empty", i)
		}
		for _, k := range r {
			if k < 0 || k > DefaultRequestConfig().MaxPerType {
				t.Errorf("request %d count %d out of range", i, k)
			}
		}
	}
}

func TestRandomRequestsSmall(t *testing.T) {
	cfg := DefaultRequestConfig()
	reqs, err := RandomRequests(5, 50, 3, Small, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		total := r.TotalVMs()
		if total < 1 || total > cfg.SmallMaxTotal {
			t.Errorf("small request %d has %d VMs", i, total)
		}
	}
}

func TestSmallRequestsAreSmallerOnAverage(t *testing.T) {
	normal, _ := RandomRequests(1, 100, 3, Normal, DefaultRequestConfig())
	small, _ := RandomRequests(1, 100, 3, Small, DefaultRequestConfig())
	sum := func(rs []model.Request) int {
		n := 0
		for _, r := range rs {
			n += r.TotalVMs()
		}
		return n
	}
	if sum(small) >= sum(normal) {
		t.Errorf("small total %d not below normal total %d", sum(small), sum(normal))
	}
}

func TestRandomRequestsErrors(t *testing.T) {
	if _, err := RandomRequests(1, 0, 3, Normal, DefaultRequestConfig()); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := RandomRequests(1, 3, 0, Normal, DefaultRequestConfig()); err == nil {
		t.Error("zero types accepted")
	}
	// Each scenario's own bound must allow one VM; the other scenario's
	// bound is not read.
	for _, c := range []struct {
		name string
		sc   Scenario
		cfg  RequestConfig
		ok   bool
	}{
		{"normal, zero config", Normal, RequestConfig{}, false},
		{"normal, MaxPerType 0", Normal, RequestConfig{MaxPerType: 0, SmallMaxTotal: 3}, false},
		{"normal, negative MaxPerType", Normal, RequestConfig{MaxPerType: -1, SmallMaxTotal: 3}, false},
		{"normal, MaxPerType 1", Normal, RequestConfig{MaxPerType: 1}, true},
		{"small, zero config", Small, RequestConfig{}, false},
		{"small, SmallMaxTotal 0", Small, RequestConfig{MaxPerType: 4, SmallMaxTotal: 0}, false},
		{"small, negative SmallMaxTotal", Small, RequestConfig{MaxPerType: 4, SmallMaxTotal: -2}, false},
		{"small, SmallMaxTotal 1", Small, RequestConfig{SmallMaxTotal: 1}, true},
	} {
		reqs, err := RandomRequests(1, 3, 3, c.sc, c.cfg)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok %v", c.name, err, c.ok)
		}
		for _, r := range reqs {
			if r.IsZero() {
				t.Errorf("%s: empty request %v", c.name, r)
			}
		}
	}
}

func TestTimedRequests(t *testing.T) {
	reqs, _ := RandomRequests(2, 10, 3, Normal, DefaultRequestConfig())
	timed, err := TimedRequests(3, reqs, DefaultArrivalConfig())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, tr := range timed {
		if tr.Arrival <= prev {
			t.Errorf("arrival %d not increasing: %v after %v", i, tr.Arrival, prev)
		}
		prev = tr.Arrival
		if tr.Hold <= 0 {
			t.Errorf("hold %d not positive", i)
		}
		if tr.ID != model.RequestID(i) {
			t.Errorf("ID %d != %d", tr.ID, i)
		}
	}
	// Determinism.
	timed2, _ := TimedRequests(3, reqs, DefaultArrivalConfig())
	for i := range timed {
		if timed[i].Arrival != timed2[i].Arrival || timed[i].Hold != timed2[i].Hold {
			t.Fatal("same seed produced different timings")
		}
	}
}

func TestTimedRequestsErrors(t *testing.T) {
	reqs, _ := RandomRequests(2, 3, 3, Normal, DefaultRequestConfig())
	if _, err := TimedRequests(1, reqs, ArrivalConfig{MeanInterarrival: 0, MeanHold: 1}); err == nil {
		t.Error("zero interarrival accepted")
	}
	if _, err := TimedRequests(1, reqs, ArrivalConfig{MeanInterarrival: 1, MeanHold: 0}); err == nil {
		t.Error("zero hold accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if timed, err := TimedRequests(1, reqs, ArrivalConfig{MeanInterarrival: bad, MeanHold: 1}); err == nil {
			t.Errorf("interarrival %v accepted: %+v", bad, timed)
		}
		if timed, err := TimedRequests(1, reqs, ArrivalConfig{MeanInterarrival: 1, MeanHold: bad}); err == nil {
			t.Errorf("hold %v accepted: %+v", bad, timed)
		}
	}
}

func TestNewPaperSimulation(t *testing.T) {
	sim, err := NewPaperSimulation(42, Normal)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Capacities) != 30 || len(sim.Capacities[0]) != 3 {
		t.Errorf("capacities shape %dx%d", len(sim.Capacities), len(sim.Capacities[0]))
	}
	if len(sim.Requests) != 20 {
		t.Errorf("requests = %d", len(sim.Requests))
	}
}

func TestScenarioString(t *testing.T) {
	if Normal.String() != "normal" || Small.String() != "small" || Scenario(9).String() != "Scenario(9)" {
		t.Error("Scenario strings wrong")
	}
}
