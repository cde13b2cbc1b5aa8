package main

// perLayer lists every per-layer metric of BENCHMARK.json with its unit, in
// the order a traced run prints them. A metric the workload at hand does
// not exercise is printed as 0: the layer is not on that workload's path.
var perLayer = [][2]string{
	// The process, over the timed repetitions (runtime.MemStats and
	// getrusage differences).
	{"proc.ref_kernel_ms", "ms"},
	{"proc.cpu_s_per_rep", "s"},
	{"proc.allocs_per_op", "count"},
	{"proc.alloc_bytes_per_op", "B"},
	{"proc.gc_cycles_per_rep", "count"},
	{"proc.gc_pause_ms_per_rep", "ms"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.trace_overhead_pct", "%"},

	// Client-observed operation times of the live workloads, pooled over
	// the timed repetitions.
	{"loadgen.p50_us", "us"},
	{"loadgen.p99_us", "us"},
	{"loadgen.p999_us", "us"},
	{"loadgen.read_p50_us", "us"},
	{"loadgen.update_p50_us", "us"},
	{"loadgen.scan_p50_us", "us"},
	{"loadgen.samples", "count"},

	// Spans of the live workloads' primary phase: mean self time per span
	// of each layer, and the counts at the same boundaries.
	{"loadgen.self_us", "us"},
	{"sdk.self_us", "us"},
	{"transport.self_us", "us"},
	{"rest.handler_us", "us"},
	{"rest.self_us", "us"},
	{"sdk.retries", "count"},
	{"rest.errors", "count"},
	{"queuestore.peak_depth", "count"},

	// sim-figures: median wall time of each experiment.
	{"core.table1.wall_s", "s"},
	{"core.fig4.wall_s", "s"},
	{"core.fig5.wall_s", "s"},
	{"core.fig6.wall_s", "s"},
	{"core.fig7.wall_s", "s"},
	{"core.fig8.wall_s", "s"},
	{"core.fig9.wall_s", "s"},
	{"core.throttle.wall_s", "s"},
	{"core.faults.wall_s", "s"},
	{"core.hotspot.wall_s", "s"},
	{"core.georepl.wall_s", "s"},
	{"core.barrier.wall_s", "s"},
	{"core.netmodel.wall_s", "s"},
	{"core.ablation.wall_s", "s"},
	{"core.cache.wall_s", "s"},
	{"core.provision.wall_s", "s"},

	// sim-closedloop.
	{"scenario.sim_ops_per_s", "ops/s"},
	{"scenario.wall_us_per_op", "us"},
	{"scenario.op_overhead_us", "us"},

	// Layer replays (replay.go), the same in every traced run.
	{"scenario.parse_ms", "ms"},
	{"cloud.table_get_us", "us"},
	{"cloud.table_update_us", "us"},
	{"cloud.queue_cycle_us", "us"},
	{"cloud.events_per_op", "count"},
	{"cloud.allocs_per_op", "count"},
	{"sim.event_ns", "ns"},
	{"sim.event_allocs", "count"},
	{"sim.switch_ns", "ns"},
	{"sim.resource_acquire_ns", "ns"},
	{"queuestore.cycle_us_depth0", "us"},
	{"queuestore.cycle_us_depth10k", "us"},
	{"queuestore.peek_us_depth10k", "us"},
	{"queuestore.count_us_depth10k", "us"},
	{"tablestore.get_us", "us"},
	{"tablestore.replace_us", "us"},
	{"tablestore.insert_us", "us"},
	{"tablestore.scan10_us", "us"},
	{"tablestore.batch100_us", "us"},
	{"blobstore.upload64k_us", "us"},
	{"blobstore.download64k_us", "us"},
	{"blobstore.alloc_bytes_per_user_byte", "B/B"},
	{"odata.encode_us", "us"},
	{"odata.decode_us", "us"},
	{"rest.get_us", "us"},
	{"rest.replace_us", "us"},
	{"rest.scan10_us", "us"},
	{"rest.queue_cycle_us", "us"},
	{"rest.blob_put64k_us", "us"},
	{"rest.blob_get64k_us", "us"},
	{"rest.blob_alloc_bytes_per_user_byte", "B/B"},
	{"rest.allocs_per_req", "count"},
}

// endToEnd lists the end-to-end metrics of BENCHMARK.json.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"rep_s", "s"},
	{"ops_per_s", "ops/s"},
}

// addLatencies reports the client-observed operation times pooled over
// the timed repetitions: primary is the workload's primary operation (a
// point operation, a task), read/update/scan its classes where it has
// them. A percentile without ten samples beyond it (stats.go) is left out,
// which at full size does not happen.
func addLatencies(m metrics, primary, read, update, scan []int64) {
	for _, c := range []struct {
		name    string
		p       float64
		samples []int64
	}{
		{"loadgen.p50_us", 50, primary},
		{"loadgen.p99_us", 99, primary},
		{"loadgen.p999_us", 99.9, primary},
		{"loadgen.read_p50_us", 50, read},
		{"loadgen.update_p50_us", 50, update},
		{"loadgen.scan_p50_us", 50, scan},
	} {
		if v, err := percentile(sortedCopy(c.samples), c.p); err == nil {
			m.set(c.name, us(v), "us")
		}
	}
	m.set("loadgen.samples", float64(len(primary)), "count")
}

// inSitu reports what the spans of the traced repetitions say about the
// live path, per span of each layer: one per operation for loadgen, one
// per HTTP request for sdk, transport and rest.
func (ls *liveStack) inSitu(m metrics, lt *layerTotals) {
	m.set("sdk.retries", float64(ls.retries()), "count")
	m.set("rest.errors", float64(ls.serverErrors()), "count")
	if lt.count[layerLoadgen] == 0 {
		return
	}
	m.set("loadgen.self_us", lt.selfUS(layerLoadgen), "us")
	m.set("sdk.self_us", lt.selfUS(layerSDK), "us")
	m.set("transport.self_us", lt.selfUS(layerTransport), "us")
	m.set("rest.handler_us", lt.selfUS(layerREST), "us")
}

// deriveLayerMetrics computes the two metrics that are a span or wall time
// minus what the replays say the layers beneath cost.
func deriveLayerMetrics(workload string, m metrics) {
	v := func(name string) float64 { return m[name].Value }
	switch workload {
	case "sim-closedloop":
		// Per simulated operation: everything scenario.Run adds on top
		// of the cloud.Client calls it makes (95 % gets, 5 % updates).
		m.set("scenario.op_overhead_us",
			v("scenario.wall_us_per_op")-(0.95*v("cloud.table_get_us")+0.05*v("cloud.table_update_us")), "us")
	case "live-table-ycsb":
		// Per request of the point phase: handler time minus the engine
		// call and the entity codec (a get encodes, a replace decodes).
		m.set("rest.self_us", v("rest.handler_us")-
			0.5*(v("tablestore.get_us")+v("odata.encode_us"))-
			0.5*(v("tablestore.replace_us")+v("odata.decode_us")), "us")
	case "live-bagoftasks":
		// Per request of a task (claim, download, upload, complete):
		// handler time minus a quarter of one queue cycle and one blob
		// round trip. The queue drains from 8 000 deep, so its cycle is
		// taken between the depth-0 and depth-10k replays at the mean
		// depth.
		depth := v("queuestore.peak_depth") / 2 / replayDepth
		cycle := v("queuestore.cycle_us_depth0") + depth*(v("queuestore.cycle_us_depth10k")-v("queuestore.cycle_us_depth0"))
		m.set("rest.self_us", v("rest.handler_us")-
			(cycle+v("blobstore.upload64k_us")+v("blobstore.download64k_us"))/4, "us")
	}
}
