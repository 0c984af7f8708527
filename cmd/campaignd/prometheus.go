package main

import (
	"fmt"
	"sort"
	"strings"
)

// renderPrometheus renders the metrics view in the Prometheus text
// exposition format (version 0.0.4): the service-wide aggregates as
// `# TYPE`-annotated counters/gauges, plus per-campaign and per-fleet
// series labeled by campaign id. Families and label values are emitted in
// sorted order so the output is deterministic for a given view.
//
// The JSON view stays the wire format of record (and byte-identical to
// the wirecompat fixtures); this rendering exists so a stock Prometheus
// scrape of GET /metrics?format=prometheus works without a sidecar
// exporter.
func renderPrometheus(v *metricsView) string {
	var b strings.Builder

	counter := func(name, help string, val int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, val)
	}
	gauge := func(name, help string, val int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, val)
	}

	gauge("campaignd_campaigns_running", "Campaigns currently executing.", int64(v.Running))
	counter("campaignd_runs_total", "Fresh injection runs completed across all campaigns.", v.TotalRuns)
	counter("campaignd_icache_hits_total", "Predecoded instruction cache hits.", v.ICacheHits)
	counter("campaignd_icache_misses_total", "Predecoded instruction cache misses.", v.ICacheMisses)
	counter("campaignd_trace_hits_total", "Superblock trace dispatches.", v.TraceHits)
	counter("campaignd_trace_exits_total", "Superblock trace side exits.", v.TraceExits)
	counter("campaignd_dirty_bytes_copied_total", "Bytes copied by O(dirty) snapshot restores.", v.DirtyBytesCopied)
	counter("campaignd_full_restores_total", "Whole-image snapshot restores.", v.FullRestores)
	counter("campaignd_cache_hits_total", "Content-addressed result store hits.", v.CacheHits)
	counter("campaignd_cache_misses_total", "Content-addressed result store misses.", v.CacheMisses)
	counter("campaignd_cache_writes_total", "Content-addressed result store entries written.", v.CacheWrites)
	counter("campaignd_cache_invalid_total", "Content-addressed result store entries rejected as corrupt.", v.CacheInvalid)
	counter("campaignd_converged_runs_total", "Register-fault runs stopped on rejoining the fault-free session.", v.ConvergedRuns)
	counter("campaignd_instructions_saved_total", "Guest instructions converged runs did not interpret.", v.InstructionsSaved)
	counter("campaignd_worker_shards_served_total", "Shards this daemon executed as a fleet worker.", v.WorkerShardsServed)
	counter("campaignd_worker_runs_served_total", "Runs this daemon streamed as a fleet worker.", v.WorkerRunsServed)

	// Per-campaign engine series.
	ids := make([]string, 0, len(v.Campaigns))
	for id := range v.Campaigns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if len(ids) > 0 {
		fmt.Fprintf(&b, "# HELP campaignd_campaign_runs_total Fresh runs completed by one campaign engine.\n")
		fmt.Fprintf(&b, "# TYPE campaignd_campaign_runs_total counter\n")
		for _, id := range ids {
			fmt.Fprintf(&b, "campaignd_campaign_runs_total{campaign=%q} %d\n", id, v.Campaigns[id].RunsTotal)
		}
		fmt.Fprintf(&b, "# HELP campaignd_campaign_groups_done Target-address groups fully executed by one campaign engine.\n")
		fmt.Fprintf(&b, "# TYPE campaignd_campaign_groups_done gauge\n")
		for _, id := range ids {
			fmt.Fprintf(&b, "campaignd_campaign_groups_done{campaign=%q} %d\n", id, v.Campaigns[id].GroupsDone)
		}
	}

	// Per-fleet-campaign coordinator series.
	fids := make([]string, 0, len(v.Fleet))
	for id := range v.Fleet {
		fids = append(fids, id)
	}
	sort.Strings(fids)
	if len(fids) > 0 {
		fmt.Fprintf(&b, "# HELP campaignd_fleet_shards_done Shards settled by one fleet coordinator.\n")
		fmt.Fprintf(&b, "# TYPE campaignd_fleet_shards_done gauge\n")
		for _, id := range fids {
			fmt.Fprintf(&b, "campaignd_fleet_shards_done{campaign=%q} %d\n", id, int64(v.Fleet[id].ShardsDone))
		}
		fmt.Fprintf(&b, "# HELP campaignd_fleet_retries_total Shard lease retries by one fleet coordinator.\n")
		fmt.Fprintf(&b, "# TYPE campaignd_fleet_retries_total counter\n")
		for _, id := range fids {
			fmt.Fprintf(&b, "campaignd_fleet_retries_total{campaign=%q} %d\n", id, v.Fleet[id].Retries)
		}
	}
	return b.String()
}
