package main

import "fmt"

// metricDef is one metric of the BENCHMARK.json catalog.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are the metrics a user of teledrive sees. Every workload
// reports each of them; latency is a drive's host time on the batch
// workloads and a session's turnaround, join reply to end report, when
// served.
var endToEndDefs = []metricDef{
	{"drives_per_s", "1/s", "higher"},
	{"sim_speedup", "sim-s/s", "higher"},
	{"latency_ms_mean", "ms", "lower"},
	{"latency_ms_tail", "ms", "lower"},
	{"cpu_ms_per_sim_s", "ms", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// cpuMSLayers get an absolute CPU cost per drive: the layers every
// workload exercises enough that a traced run always samples them (at
// pprof's 100 Hz), so the number is a measurement on each workload.
var cpuMSLayers = []string{
	"simclock", "world", "geom", "sensors", "netem", "transport", "bridge",
	"driver", "gc",
}

// perLayerDefs is the traced run's catalog.
var perLayerDefs = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio", "lower"})
	}
	for _, l := range cpuMSLayers {
		defs = append(defs, metricDef{l + ".cpu_ms_per_drive", "ms", "lower"})
	}
	for _, l := range layers {
		if l != "gc" {
			defs = append(defs, metricDef{l + ".alloc_kb_per_drive", "KiB", "lower"})
		}
	}
	return append(defs,
		metricDef{"world.ns_per_step", "ns", "lower"},
		metricDef{"geom.ns_per_step", "ns", "lower"},
		metricDef{"sensors.ns_per_frame", "ns", "lower"},
		metricDef{"driver.ns_per_tick", "ns", "lower"},
		metricDef{"transport.ns_per_msg", "ns", "lower"},
		metricDef{"world.steps", "count", "lower"},
		metricDef{"sensors.frames", "count", "lower"},
		metricDef{"bridge.frames_sent", "count", "higher"},
		metricDef{"bridge.frames_dropped", "count", "lower"},
		metricDef{"bridge.delta_share", "ratio", "higher"},
		metricDef{"driver.ticks", "count", "lower"},
		metricDef{"transport.msgs", "count", "lower"},
		metricDef{"transport.fragments", "count", "lower"},
		metricDef{"transport.retransmits", "count", "lower"},
		metricDef{"transport.retransmit_ratio", "ratio", "lower"},
		metricDef{"transport.window_rejects", "count", "lower"},
		metricDef{"transport.out_of_order_held", "count", "lower"},
		metricDef{"netem.packets", "count", "lower"},
		metricDef{"netem.loss_share", "ratio", "lower"},
		metricDef{"gc.allocs_per_drive", "count", "lower"},
		metricDef{"budget.cpu_ms_per_drive", "ms", "lower"},
		metricDef{"budget.coverage", "ratio", "higher"},
		metricDef{"budget.other_share", "ratio", "lower"},
		metricDef{"pool.idle_share", "ratio", "lower"},
		metricDef{"tracing_overhead", "ratio", "lower"},
	)
}()

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not in the catalog", name))
}

// endToEnd turns an untraced run's repetitions into the end-to-end
// metrics. Rates, CPU cost and latency cover the whole run: ratios of
// its totals, or the pooled latency of all its drives (sessions). The
// repetitions' inputs differ, and one search's drives per second vary
// with where its seed leads it, so totals weigh every drive alike where
// a median of repetitions would weigh every search alike. Set-up and max
// RSS belong to one process each, and the run reports their median.
// Every metric's samples are the repetitions' own values, to show the
// spread behind it.
//
// Allocations per drive are a diagnostic here: exact for a given input,
// but on adversarial-search one search's count per drive varies by a
// third (coefficient of variation over 128 searches), and runs of six to
// eight searches spread 14–30% over ten seeds, more than any bound the
// benchmark allows would absorb.
func endToEnd(w *workload, ch *childReport, rssMB []float64) (map[string]dist, map[string]float64) {
	var t struct{ done, drives, wall, sim, cpu, mallocs float64 }
	for _, r := range ch.Reps {
		t.done += float64(r.Attempted - r.Failed)
		t.drives += float64(r.Attempted)
		t.wall += r.HostS
		t.sim += r.SimS
		t.cpu += r.CPUS
		t.mallocs += float64(r.Mallocs)
	}
	m := make(map[string]dist)
	add := func(name string, value float64, f func(r repRecord) float64) {
		xs := make([]float64, 0, len(ch.Reps))
		for _, r := range ch.Reps {
			if r.Attempted > 0 && r.HostS > 0 && r.SimS > 0 {
				xs = append(xs, f(r))
			}
		}
		d := summarize(xs, unitOf(endToEndDefs, name))
		d.Value = value
		m[name] = d
	}
	add("drives_per_s", ratio(t.done, t.wall), func(r repRecord) float64 { return float64(r.Attempted-r.Failed) / r.HostS })
	add("sim_speedup", ratio(t.sim, t.wall), func(r repRecord) float64 { return r.SimS / r.HostS })
	add("latency_ms_mean", mean(ch.Lat), func(r repRecord) float64 { return r.LatMean })
	add("latency_ms_tail", percentile(sortedCopy(ch.Lat), w.tail), func(r repRecord) float64 { return r.LatTail })
	add("cpu_ms_per_sim_s", ratio(t.cpu*1e3, t.sim), func(r repRecord) float64 { return r.CPUS * 1e3 / r.SimS })
	setups := make([]float64, len(ch.Reps))
	for i, r := range ch.Reps {
		setups[i] = r.SetupS
	}
	m["setup_s"] = summarize(setups, unitOf(endToEndDefs, "setup_s"))
	m["max_rss_mb"] = summarize(rssMB, unitOf(endToEndDefs, "max_rss_mb"))
	diag := map[string]float64{
		"latency_tail_percentile": w.tail, "latency_samples": float64(len(ch.Lat)),
		"allocs_per_drive": ratio(t.mallocs, t.drives),
	}
	perRep := make(map[string][]float64)
	for _, r := range ch.Reps {
		for name, v := range r.Diag {
			perRep[name] = append(perRep[name], v)
		}
	}
	for name, xs := range perRep {
		diag[name] = median(xs)
	}
	return m, diag
}

// perLayer builds the traced run's metrics. Layer metrics come from
// the traced repetitions' profiles and counters, normalized by their
// drives (sessions when served); the untraced repetition of each input
// is the reference for tracing overhead, pool idleness and allocation
// counts.
func perLayer(ch *childReport) (map[string]dist, map[string]float64) {
	var tr, un struct{ drives, cpu, wall, mallocs float64 }
	var c counts
	untracedCPU := make(map[int64]float64) // CPU per drive by input seed
	for _, r := range ch.Reps {
		side := &un
		if r.Traced {
			side = &tr
			c.add(r.Counts)
		} else if r.Attempted > 0 {
			untracedCPU[r.Seed] = r.CPUS / float64(r.Attempted)
		}
		side.drives += float64(r.Attempted)
		side.cpu += r.CPUS
		side.wall += r.HostS
		side.mallocs += float64(r.Mallocs)
	}
	// Tracing overhead compares the traced and untraced run of one input
	// in one process, input by input.
	var overhead []float64
	for _, r := range ch.Reps {
		if u := untracedCPU[r.Seed]; r.Traced && r.Attempted > 0 && u > 0 {
			overhead = append(overhead, r.CPUS/float64(r.Attempted)/u-1)
		}
	}
	var total int64
	for _, ns := range ch.CPUNS {
		total += ns
	}
	layerNS := func(l string) float64 { return float64(ch.CPUNS[layerIndex[l]]) }
	drives := tr.drives

	vals := make(map[string]float64)
	for i, l := range layers {
		vals[l+".cpu_share"] = ratio(float64(ch.CPUNS[i]), float64(total))
		if l != "gc" {
			vals[l+".alloc_kb_per_drive"] = ratio(float64(ch.AllocB[i])/1024, drives)
		}
	}
	for _, l := range cpuMSLayers {
		vals[l+".cpu_ms_per_drive"] = ratio(layerNS(l)/1e6, drives)
	}
	vals["world.ns_per_step"] = ratio(layerNS("world"), float64(c.Steps))
	vals["geom.ns_per_step"] = ratio(layerNS("geom"), float64(c.Steps))
	vals["sensors.ns_per_frame"] = ratio(layerNS("sensors"), float64(c.Frames))
	vals["driver.ns_per_tick"] = ratio(layerNS("driver"), float64(c.DriverTicks))
	vals["transport.ns_per_msg"] = ratio(layerNS("transport"), float64(c.Msgs))
	for name, n := range map[string]uint64{
		"world.steps": c.Steps, "sensors.frames": c.Frames, "bridge.frames_sent": c.FramesSent,
		"bridge.frames_dropped": c.FramesDropped, "driver.ticks": c.DriverTicks, "transport.msgs": c.Msgs,
		"transport.fragments": c.Fragments, "transport.retransmits": c.Retransmits,
		"transport.window_rejects": c.WindowRejects, "transport.out_of_order_held": c.OutOfOrder,
		"netem.packets": c.Packets,
	} {
		vals[name] = ratio(float64(n), drives)
	}
	vals["bridge.delta_share"] = ratio(float64(c.Deltas), float64(c.FramesSent))
	vals["transport.retransmit_ratio"] = ratio(float64(c.Retransmits), float64(c.Fragments))
	vals["netem.loss_share"] = ratio(float64(c.Lost), float64(c.Packets))
	vals["budget.cpu_ms_per_drive"] = ratio(float64(total)/1e6, drives)
	vals["budget.coverage"] = ratio(float64(total)/1e9, tr.cpu)
	vals["budget.other_share"] = vals["other.cpu_share"]
	vals["pool.idle_share"] = 1 - ratio(un.cpu, un.wall*workers)
	vals["gc.allocs_per_drive"] = ratio(un.mallocs, un.drives)

	m := make(map[string]dist, len(vals)+1)
	for name, v := range vals {
		m[name] = summarize([]float64{v}, unitOf(perLayerDefs, name))
	}
	m["tracing_overhead"] = summarize(overhead, unitOf(perLayerDefs, "tracing_overhead"))

	diag := map[string]float64{
		"transport.ns_per_fragment":  ratio(layerNS("transport"), float64(c.Fragments)),
		"netem.ns_per_packet":        ratio(layerNS("netem"), float64(c.Packets)),
		"trace.ns_per_step":          ratio(layerNS("trace"), float64(c.Steps)),
		"trace.cpu_ms_per_drive":     ratio(layerNS("trace")/1e6, drives),
		"hub.cpu_ms_per_drive":       ratio(layerNS("hub")/1e6, drives),
		"session.tick_us_p50":        us(ch.Ticks.quantile(50)),
		"session.tick_us_p99":        us(ch.Ticks.quantile(99)),
		"station.on_frame_us_p50":    us(ch.Station.OnFrame.quantile(50)),
		"station.frames_stale_share": ratio(float64(ch.Station.FramesStale), float64(ch.Station.FramesReceived)),
	}
	for i, l := range layers {
		if l != "gc" {
			diag[l+".allocs_per_drive"] = ratio(float64(ch.AllocN[i]), drives)
		}
	}
	for name, xs := range ch.Spans {
		diag[name+"_p50"] = median(xs)
		if name == "hub.join_ms" {
			diag[name+"_p95"] = percentile(sortedCopy(xs), 95)
		}
	}
	return m, diag
}

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
