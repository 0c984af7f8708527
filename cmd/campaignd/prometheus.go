package main

import (
	"fmt"
	"sort"
	"strings"

	"faultsec/internal/campaign"
	"faultsec/internal/fleet"
)

// promFamily is one aggregate family of the Prometheus exposition: its
// name, HELP text and TYPE, the metricsView JSON key that holds the same
// value, and the getter that reads it.
type promFamily struct {
	name, help, kind, key string
	get                   func(*metricsView) int64
}

// aggregateFamilies is the service-wide part of the exposition, one row
// per aggregate of the JSON view, in exposition order.
var aggregateFamilies = []promFamily{
	{"campaignd_campaigns_running", "Campaigns currently executing.", "gauge", "running",
		func(v *metricsView) int64 { return int64(v.Running) }},
	{"campaignd_runs_total", "Fresh injection runs completed across all campaigns.", "counter", "totalRuns",
		func(v *metricsView) int64 { return v.TotalRuns }},
	{"campaignd_icache_hits_total", "Predecoded instruction cache hits.", "counter", "icacheHits",
		func(v *metricsView) int64 { return v.ICacheHits }},
	{"campaignd_icache_misses_total", "Predecoded instruction cache misses.", "counter", "icacheMisses",
		func(v *metricsView) int64 { return v.ICacheMisses }},
	{"campaignd_trace_hits_total", "Superblock trace dispatches.", "counter", "traceHits",
		func(v *metricsView) int64 { return v.TraceHits }},
	{"campaignd_trace_exits_total", "Superblock trace side exits.", "counter", "traceExits",
		func(v *metricsView) int64 { return v.TraceExits }},
	{"campaignd_dirty_bytes_copied_total", "Bytes copied by O(dirty) snapshot restores.", "counter", "dirtyBytesCopied",
		func(v *metricsView) int64 { return v.DirtyBytesCopied }},
	{"campaignd_full_restores_total", "Whole-image snapshot restores.", "counter", "fullRestores",
		func(v *metricsView) int64 { return v.FullRestores }},
	{"campaignd_cache_hits_total", "Content-addressed result store hits.", "counter", "cacheHits",
		func(v *metricsView) int64 { return v.CacheHits }},
	{"campaignd_cache_misses_total", "Content-addressed result store misses.", "counter", "cacheMisses",
		func(v *metricsView) int64 { return v.CacheMisses }},
	{"campaignd_cache_writes_total", "Content-addressed result store entries written.", "counter", "cacheWrites",
		func(v *metricsView) int64 { return v.CacheWrites }},
	{"campaignd_cache_invalid_total", "Content-addressed result store entries rejected as corrupt.", "counter", "cacheInvalid",
		func(v *metricsView) int64 { return v.CacheInvalid }},
	{"campaignd_converged_runs_total", "Runs stopped on rejoining the fault-free session.", "counter", "convergedRuns",
		func(v *metricsView) int64 { return v.ConvergedRuns }},
	{"campaignd_instructions_saved_total", "Guest instructions converged runs did not interpret.", "counter", "instructionsSaved",
		func(v *metricsView) int64 { return v.InstructionsSaved }},
	{"campaignd_instructions_interpreted_total", "Guest instructions executed runs interpreted after activation.", "counter", "instructionsInterpreted",
		func(v *metricsView) int64 { return v.InstructionsInterpreted }},
	{"campaignd_worker_shards_served_total", "Shards this daemon executed as a fleet worker.", "counter", "workerShardsServed",
		func(v *metricsView) int64 { return v.WorkerShardsServed }},
	{"campaignd_worker_runs_served_total", "Runs this daemon streamed as a fleet worker.", "counter", "workerRunsServed",
		func(v *metricsView) int64 { return v.WorkerRunsServed }},
}

// renderPrometheus renders the metrics view in the Prometheus text
// exposition format (version 0.0.4): the service-wide aggregates as
// `# TYPE`-annotated counters/gauges, plus per-campaign and per-fleet
// series labeled by campaign id. Families are emitted in table order and
// label values in sorted order, so the output is deterministic for a
// given view.
//
// The JSON view stays the wire format of record (and byte-identical to
// the wirecompat fixtures); this rendering exists so a stock Prometheus
// scrape of GET /metrics?format=prometheus works without a sidecar
// exporter.
func renderPrometheus(v *metricsView) string {
	var b strings.Builder
	for _, f := range aggregateFamilies {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", f.name, f.help, f.name, f.kind, f.name, f.get(v))
	}
	labeledSeries(&b, "campaignd_campaign_runs_total", "Fresh runs completed by one campaign engine.", "counter",
		v.Campaigns, func(m campaign.Metrics) int64 { return m.RunsTotal })
	labeledSeries(&b, "campaignd_campaign_groups_done", "Target-address groups fully executed by one campaign engine.", "gauge",
		v.Campaigns, func(m campaign.Metrics) int64 { return m.GroupsDone })
	labeledSeries(&b, "campaignd_fleet_shards_done", "Shards settled by one fleet coordinator.", "gauge",
		v.Fleet, func(m fleet.Metrics) int64 { return int64(m.ShardsDone) })
	labeledSeries(&b, "campaignd_fleet_retries_total", "Shard lease retries by one fleet coordinator.", "counter",
		v.Fleet, func(m fleet.Metrics) int64 { return m.Retries })
	return b.String()
}

// labeledSeries renders one per-campaign family: a sample labeled with
// each campaign id, in sorted id order. A family with no campaigns is
// omitted entirely.
func labeledSeries[M any](b *strings.Builder, name, help, kind string, byID map[string]M, get func(M) int64) {
	if len(byID) == 0 {
		return
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	for _, id := range ids {
		fmt.Fprintf(b, "%s{campaign=%q} %d\n", name, id, get(byID[id]))
	}
}
