package main

import "time"

// layerUnits lists every per-layer metric of a traced run with its unit.
// A traced run reports all of them; a layer the workload does not load
// reads 0. Times and allocation counts are medians over the traced ops;
// the other counts are means per op, except the jobs.* counters, which are
// the questd totals of the run.
var layerUnits = map[string]string{
	"qasm.self_ms":         "ms",
	"partition.self_ms":    "ms",
	"partition.blocks":     "count",
	"synth.self_ms":        "ms",
	"synth.allocs":         "count",
	"synth.candidates":     "count",
	"synth.degraded":       "count",
	"ucache.hits":          "count",
	"ucache.misses":        "count",
	"ucache.hit_ratio":     "ratio",
	"ucache.hit_ms":        "ms",
	"selection.self_ms":    "ms",
	"selection.allocs":     "count",
	"selection.members":    "count",
	"ensemble.self_ms":     "ms",
	"ensemble.allocs":      "count",
	"ensemble.members":     "count",
	"serve.submit_ms":      "ms",
	"serve.result_ms":      "ms",
	"jobs.queue_wait_ms":   "ms",
	"jobs.run_hit_ms":      "ms",
	"jobs.run_miss_ms":     "ms",
	"jobs.artifact_hits":   "count",
	"jobs.artifact_misses": "count",
	"jobs.shed":            "count",
	"jobs.retried":         "count",
	"jobs.failed":          "count",
	"load.late_ms":         "ms",
	"trace.overhead_pct":   "%",
}

// layerMetrics returns the per-layer metrics with the given values set and
// every other one at 0.
func layerMetrics(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{Value: values[name], Unit: unit}
	}
	return out
}

// libraryLayers aggregates the layer samples of a traced library run,
// with times scaled to the reference host by the run's host factor f.
func libraryLayers(run *libRun, f float64) map[string]metric {
	scaled := func(d time.Duration) float64 { return ms(d) / f }
	var (
		qasmMS, partMS, synthMS, selMS, ensMS []float64
		synthAl, selAl, ensAl, hitMS          []float64
		blocks, cands, degr, members, ensMem  []float64
		hits, misses                          []float64
		overhead                              []float64
		totalHits, totalMisses                float64
	)
	for _, o := range run.outcomes {
		ls := o.layers
		if ls == nil {
			continue
		}
		qasmMS = append(qasmMS, scaled(ls.qasm))
		partMS = append(partMS, scaled(ls.partition))
		synthMS = append(synthMS, scaled(ls.synth))
		selMS = append(selMS, scaled(ls.selection))
		synthAl = append(synthAl, float64(ls.synthAllocs))
		selAl = append(selAl, float64(ls.selectionAllocs))
		blocks = append(blocks, float64(ls.blocks))
		cands = append(cands, float64(ls.candidates))
		degr = append(degr, float64(ls.degraded))
		members = append(members, float64(ls.members))
		hits = append(hits, float64(ls.hits))
		misses = append(misses, float64(ls.misses))
		totalHits += float64(ls.hits)
		totalMisses += float64(ls.misses)
		if ls.misses == 0 && ls.hits > 0 {
			hitMS = append(hitMS, scaled(ls.synth))
		}
		if ls.ensembleMembers > 0 {
			ensMS = append(ensMS, scaled(ls.ensemble))
			ensAl = append(ensAl, float64(ls.ensembleAllocs))
			ensMem = append(ensMem, float64(ls.ensembleMembers))
		}
		overhead = append(overhead, 100*ls.overhead)
	}
	return layerMetrics(map[string]float64{
		"qasm.self_ms":       median(qasmMS),
		"partition.self_ms":  median(partMS),
		"partition.blocks":   mean(blocks),
		"synth.self_ms":      median(synthMS),
		"synth.allocs":       median(synthAl),
		"synth.candidates":   mean(cands),
		"synth.degraded":     mean(degr),
		"ucache.hits":        mean(hits),
		"ucache.misses":      mean(misses),
		"ucache.hit_ratio":   ratio(totalHits, totalHits+totalMisses),
		"ucache.hit_ms":      median(hitMS),
		"selection.self_ms":  median(selMS),
		"selection.allocs":   median(selAl),
		"selection.members":  mean(members),
		"ensemble.self_ms":   median(ensMS),
		"ensemble.allocs":    median(ensAl),
		"ensemble.members":   mean(ensMem),
		"trace.overhead_pct": median(overhead),
	})
}
