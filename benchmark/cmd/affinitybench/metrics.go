package main

// Workload features a metric can require. A metric applies to a
// workload when the workload has every feature the metric needs.
const (
	fStream = "stream" // cloudsim.RunStream replay with obs on
	fSvc    = "svc"    // closed loop through service.Service
	fResize = "resize" // grows and shrinks of live clusters
	fList   = "list"   // sparse releases (Inventory.ReleaseList)
)

// metricDef is one metric of the benchmark. BENCHMARK.json lists the
// same names, units and directions (pinned by TestSpecMatchesCatalog).
type metricDef struct {
	name, unit, better string
	endToEnd           bool
	needs              []string
	// exactOn is the feature of the workloads on which the metric is a
	// deterministic function of the seed and the plant count, so that
	// -compare judges two runs of the same seed and count exactly.
	exactOn string
}

func e2e(name, unit, better string) metricDef {
	return metricDef{name: name, unit: unit, better: better, endToEnd: true}
}

func layer(name, unit string, needs ...string) metricDef {
	return metricDef{name: name, unit: unit, better: "lower", needs: needs}
}

// exact marks m as deterministic on workloads with feature f.
func (m metricDef) exact(f string) metricDef {
	m.exactOn = f
	return m
}

// catalog is every metric, end-to-end first. End-to-end metrics apply to
// every workload and are never 0; a per-layer metric on a workload that
// does not exercise its layer is reported as 0 in the result line and
// left out of the human-readable lines.
var catalog = []metricDef{
	e2e("setup_s", "s", "lower"),
	e2e("ops_per_s", "1/s", "higher"),
	e2e("latency_p50_us", "us", "lower"),
	e2e("latency_p99_us", "us", "lower"),
	e2e("dc_mean", "DC", "lower").exact(fStream),
	e2e("peak_heap_mib", "MiB", "lower"),
	e2e("allocs_per_op", "allocs/op", "lower"),

	layer("latency_p999_us", "us"),
	layer("wait_mean_s", "s", fStream).exact(fStream),
	layer("failed_frac", "ratio").exact(fStream),

	layer("workload.next_ns", "ns", fStream),
	layer("obs.events_per_op", "events/op", fStream),
	layer("obs.bytes_per_op", "B/op", fStream),
	layer("obs.sink_ns_per_op", "ns/op", fStream),
	layer("obs.cost_frac", "ratio", fStream),

	layer("cloudsim.queued_frac", "ratio", fStream),
	layer("cloudsim.grow_defers_per_op", "1/op", fStream, fResize),
	layer("cloudsim.grows_per_op", "1/op", fStream, fResize),
	layer("cloudsim.shrinks_per_op", "1/op", fStream, fResize),
	layer("cloudsim.fault_victims_per_op", "1/op", fStream),
	layer("cloudsim.self_ns_per_op", "ns/op", fStream),
	{name: "cloudsim.explained_frac", unit: "ratio", better: "higher", needs: []string{fStream}},

	layer("placement.place_ns_p50", "ns"),
	layer("placement.place_ns_p99", "ns"),
	layer("placement.place_ns_mean", "ns"),
	layer("placement.delta_ns_p50", "ns", fResize),
	layer("placement.delta_ns_p99", "ns", fResize),
	layer("placement.shrink_ns_p50", "ns", fResize),
	layer("placement.shrink_ns_p99", "ns", fResize),
	layer("placement.multinode_frac", "ratio"),
	layer("placement.allocs_per_call", "allocs/call"),

	layer("inventory.allocate_ns_mean", "ns"),
	layer("inventory.release_ns_mean", "ns", fStream),
	layer("inventory.release_list_ns_mean", "ns", fList),
	layer("inventory.fail_restore_ns_mean", "ns", fStream),
	layer("inventory.allocs_per_call", "allocs/call"),

	layer("affinity.to_dense_ns_mean", "ns", fStream),
	layer("affinity.distance_ns_mean", "ns", fStream),
	layer("affinity.sparse_ns_mean", "ns", fStream, fResize),
	layer("affinity.allocs_per_call", "allocs/call", fStream),

	layer("migration.plan_ns_mean", "ns", fStream),

	layer("eventsim.op_ns_mean", "ns", fStream),
	layer("eventsim.pending_mean", "count", fStream),

	layer("queue.drain_ns_mean", "ns", fStream),
	layer("queue.len_mean", "count", fStream),

	layer("service.place_us_p50", "us", fSvc),
	layer("service.place_us_p99", "us", fSvc),
	layer("service.release_us_p50", "us", fSvc),
	layer("service.release_us_p99", "us", fSvc),
	layer("service.grow_us_p50", "us", fSvc, fResize),
	layer("service.grow_us_p99", "us", fSvc, fResize),
	layer("service.shrink_us_p50", "us", fSvc, fResize),
	layer("service.shrink_us_p99", "us", fSvc, fResize),
	layer("service.batch_mean", "count", fSvc),
	layer("service.batch_max", "count", fSvc),
	layer("service.overhead_ns_per_op", "ns/op", fSvc),
	layer("service.hop_allocs_per_op", "allocs/op", fSvc),
	layer("service.grow_fail_frac", "ratio", fSvc, fResize),

	layer("runtime.gc_cpu_frac", "ratio"),
	layer("runtime.bytes_per_op", "B/op"),
	layer("runtime.gc_cycles_per_kop", "1/kop"),

	layer("trace.overhead_frac", "ratio"),
	layer("machine.calib_ms", "ms"),
}

// applies reports whether m is measured on a workload with features fs.
func (m metricDef) applies(fs []string) bool {
	for _, n := range m.needs {
		found := false
		for _, f := range fs {
			if f == n {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// inMode reports whether m belongs to the result line of a run: the
// end-to-end metrics in an untraced run, the per-layer ones in a traced
// run.
func (m metricDef) inMode(trace bool) bool { return m.endToEnd != trace }

func lookupMetric(name string) (metricDef, bool) {
	for _, m := range catalog {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
