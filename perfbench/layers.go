package main

import (
	"repro/internal/schemes"
	"repro/internal/telemetry/trace"
)

// schemeNames in the framework's canonical order.
var schemeNames = []string{schemes.NameGPS, schemes.NameWiFi, schemes.NameCellular, schemes.NameMotion, schemes.NameFusion}

// layerMetrics derives the per-layer figures: counters and outcomes from
// the untraced window, timings from the traced one.
func layerMetrics(wl workload, plain, traced *window) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	n := float64(plain.res.epochs())
	put("offload.epochs", n, "count")

	// Framework.Step and its parts, from the epoch observer.
	ep := traced.epochs
	put("core.step_ms_p50", quantile(scaled(ep.step, 1e6), 0.50), "ms")
	put("core.step_ms_p99", quantile(scaled(ep.step, 1e6), 0.99), "ms")
	put("core.classify_us_p50", quantile(scaled(ep.classify, 1e3), 0.50), "us")
	put("core.predict_us_p50", quantile(scaled(ep.predict, 1e3), 0.50), "us")
	put("core.combine_us_p50", quantile(scaled(ep.combine, 1e3), 0.50), "us")
	selected := map[string]int{}
	var hellos []int64
	fallbacks, reconnects := 0, 0
	for _, rec := range plain.res.lanes {
		for s, k := range rec.selected {
			selected[s] += k
		}
		fallbacks += rec.fallbacks
		hellos = append(hellos, rec.helloNS...)
		reconnects += rec.reconnects
	}
	for _, s := range schemeNames {
		put("schemes."+s+".estimate_us_p50", quantile(scaled(ep.estimate[s], 1e3), 0.50), "us")
		put("schemes."+s+".estimate_us_p99", quantile(scaled(ep.estimate[s], 1e3), 0.99), "us")
		put("schemes."+s+".selected_share", ratio(float64(selected[s]), n), "ratio")
	}
	put("core.fallback_ratio", ratio(float64(fallbacks), n), "ratio")

	// Map stores and the shared-compute cache, from their registries.
	c := plain.ctr
	for _, mp := range []string{"wifi", "cellular"} {
		lookups := 0.0
		for _, op := range []string{"nearest", "distances", "vector_at", "density"} {
			lookups += c[key("uniloc_mapstore_lookups_total", "map", mp, "op", op)]
		}
		put("mapstore."+mp+".lookups", lookups, "count")
		put("mapstore."+mp+".lookups_per_epoch", ratio(lookups, n), "count")
		put("mapstore."+mp+".cells_per_lookup", ratio(c[key("cells_sum", mp)], c[key("cells_count", mp)]), "count")
	}
	put("mapstore.rebuilds", c[key("uniloc_mapstore_rebuilds_total", "map", "wifi")]+c[key("uniloc_mapstore_rebuilds_total", "map", "cellular")], "count")
	put("mapstore.points_dropped", c[key("uniloc_mapstore_points_dropped_total", "map", "wifi")]+c[key("uniloc_mapstore_points_dropped_total", "map", "cellular")], "count")
	put("sharedcompute.entries_built", c[key("uniloc_sharedcompute_entries_built_total")], "count")
	put("sharedcompute.tracker_shares", c[key("uniloc_sharedcompute_tracker_shares_total")], "count")
	hits, misses := c[key("uniloc_sharedcompute_hits_total")], c[key("uniloc_sharedcompute_misses_total")]
	put("sharedcompute.lik_lookups", hits+misses, "count")
	put("sharedcompute.lik_hit_ratio", ratio(hits, hits+misses), "ratio")

	// Offload protocol.
	put("offload.hellos", float64(len(hellos)), "count")
	put("offload.hello_ms_p50", quantile(scaled(hellos, 1e6), 0.50), "ms")
	put("offload.bytes_up_per_epoch", ratio(c[key("uniloc_frame_bytes_total", "dir", "in")], n), "B")
	put("offload.bytes_down_per_epoch", ratio(c[key("uniloc_frame_bytes_total", "dir", "out")], n), "B")
	put("offload.server_step_ms_mean", plain.stepMeanMS, "ms")
	put("offload.reconnects", float64(reconnects), "count")

	// Handoff mesh, from the ShipSession wrapper and the mesh's own
	// counter of states pushed to a peer (fewer than Ship calls when a
	// peer's queue coalesced a session's states), and the router.
	put("cluster.handoff.ships", float64(len(plain.shipNS)), "count")
	put("cluster.handoff.state_kb_per_epoch", ratio(float64(plain.shipBytes)/1024, n), "KiB")
	put("cluster.handoff.ship_us_p50", quantile(scaled(plain.shipNS, 1e3), 0.50), "us")
	put("cluster.handoff.pushed_per_ship", ratio(c[key("uniloc_handoff_shipped_total")], float64(len(plain.shipNS))), "ratio")
	put("cluster.router.routed", c[key("uniloc_router_routed_total")], "count")

	// Process cost of the untraced window.
	put("runtime.cpu_ms_per_epoch", ratio(float64(plain.cost.cpu)/1e6, n), "ms")
	put("runtime.gc_per_1k_epochs", ratio(float64(plain.cost.gcs)*1000, n), "count")

	// Spans of the traced window.
	sp := splitSpans(traced.spans)
	epochP50 := quantile(sp.epoch, 0.50)
	ioP50, queueP50, stepP50 := quantile(sp.io, 0.50), quantile(sp.queue, 0.50), quantile(sp.step, 0.50)
	put("trace.epochs", float64(len(sp.epoch)), "count")
	put("trace.epoch_p50_ms", epochP50, "ms")
	put("offload.io_ms_p50", ioP50, "ms")
	put("offload.queue_ms_p50", queueP50, "ms")
	hop := 0.0
	if wl.cluster {
		hop = quantile(sp.link, 0.50)
	}
	put("cluster.hop_ms_p50", hop, "ms")
	put("trace.coverage", ratio(ioP50+queueP50+stepP50, epochP50), "ratio")
	put("trace.overhead_ratio", ratio(float64(traced.res.epochs())/traced.res.elapsed.Seconds(), n/plain.res.elapsed.Seconds()), "ratio")
	return m
}

// epochSpans are per-epoch span timings, in ms, of complete traced
// epochs: the client-observed round trip, the time outside the server
// frame (link), the frame's read and write plus the link (io), the gap
// between the epoch being read and Framework.Step starting (queue), and
// the step.
type epochSpans struct {
	epoch, link, io, queue, step []float64
}

func splitSpans(recs []*trace.Record) epochSpans {
	var out epochSpans
	for _, tr := range trace.Assemble(recs) {
		byName := map[string]*trace.Record{}
		for _, s := range tr.Spans {
			byName[s.Name] = s
		}
		ep, fr, rd, stp, wr := byName["client.epoch"], byName["server.frame"], byName["server.read"], byName["step"], byName["server.write"]
		if ep == nil || fr == nil || rd == nil || stp == nil || wr == nil {
			continue
		}
		link := float64(ep.DurNS-fr.DurNS) / 1e6
		queue := float64(stp.StartNS-rd.End()) / 1e6
		if queue < 0 {
			queue = 0
		}
		out.epoch = append(out.epoch, float64(ep.DurNS)/1e6)
		out.link = append(out.link, link)
		out.io = append(out.io, link+float64(rd.DurNS+wr.DurNS)/1e6)
		out.queue = append(out.queue, queue)
		out.step = append(out.step, float64(stp.DurNS)/1e6)
	}
	return out
}
