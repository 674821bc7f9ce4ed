package experiments

import (
	"fmt"
	"io"

	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// Table2Config sizes the classification validation. The paper validates on
// 10 Hadoop data-mining jobs, 10 memcached loads, 10 webserver loads, and
// 413 single-node benchmarks over the 40-server cluster's platforms.
type Table2Config struct {
	Hadoop, Memcached, Webserver, SingleNode int
	SeedLibPerType                           int
	ExhaustiveEntries                        int // 8 in the paper
	Seed                                     int64
	// Workers bounds the validation fan-out; zero means the process
	// default. Results are identical for any value.
	Workers int
}

// DefaultTable2Config matches the paper's counts.
func DefaultTable2Config() Table2Config {
	return Table2Config{
		Hadoop: 10, Memcached: 10, Webserver: 10, SingleNode: 413,
		SeedLibPerType: 4, ExhaustiveEntries: 8, Seed: 2,
	}
}

// ClassErrors is one row of Table 2.
type ClassErrors struct {
	AppClass   string
	N          int
	ScaleUp    classify.ErrorStats
	ScaleOut   classify.ErrorStats
	Hetero     classify.ErrorStats
	Interf     classify.ErrorStats
	Exhaustive classify.ErrorStats
}

// Table2Result is the validation of the classification engine.
type Table2Result struct {
	Rows []ClassErrors
}

// Table2 runs the validation: each test workload is classified from sparse
// profiling (2 entries/row default) by the four parallel classifications and
// by the single exhaustive classification (8 entries/row), and both are
// compared against exhaustive noise-free characterization.
func Table2(cfg Table2Config) *Table2Result {
	platforms := cluster.LocalPlatforms()
	u := workload.NewUniverse(platforms, cfg.Seed, 3)
	opts := classify.DefaultOptions()
	opts.MaxNodes = 32
	eng := classify.NewEngine(platforms, opts, sim.NewRNG(cfg.Seed+1))
	exh := classify.NewExhaustive(platforms, 8, opts.CF, sim.NewRNG(cfg.Seed+2))

	// Offline library for both engines. The workloads and the probers'
	// noise streams are derived sequentially in library order — the
	// derivation that pins determinism — and the dense probing then fans
	// out across workers.
	rng := sim.NewRNG(cfg.Seed + 3)
	lib := u.Library([]workload.Type{workload.Hadoop, workload.Memcached, workload.Webserver,
		workload.SingleNode, workload.Spark, workload.Storm, workload.Cassandra}, cfg.SeedLibPerType)
	probers := classify.GroundTruthProbers(lib, platforms, rng)
	eng.SeedOfflineMany(lib, probers)
	exh.SeedMany(lib, probers)

	groups := []struct {
		name string
		tp   workload.Type
		n    int
	}{
		{"Hadoop", workload.Hadoop, cfg.Hadoop},
		{"Memcached", workload.Memcached, cfg.Memcached},
		{"Webserver", workload.Webserver, cfg.Webserver},
		{"Single-node", workload.SingleNode, cfg.SingleNode},
	}
	res := &Table2Result{}
	for _, g := range groups {
		ws := make([]*workload.Instance, g.n)
		noisy := make([]*classify.GroundTruthProber, g.n)
		for i := range ws {
			ws[i] = u.New(workload.Spec{Type: g.tp, Family: -1, MaxNodes: 4})
			noisy[i] = classify.NewGroundTruthProber(ws[i], platforms, rng.Stream("exh/"+ws[i].ID))
		}
		errs := classify.ValidateMany(eng, ws, cfg.Workers)
		joint := classify.ValidateExhaustiveMany(exh, ws, noisy, cfg.ExhaustiveEntries, cfg.Workers)
		res.Rows = append(res.Rows, ClassErrors{
			AppClass:   g.name,
			N:          g.n,
			ScaleUp:    classify.Stats(errs.ScaleUp),
			ScaleOut:   classify.Stats(errs.ScaleOut),
			Hetero:     classify.Stats(errs.Hetero),
			Interf:     classify.Stats(errs.Interf),
			Exhaustive: classify.Stats(joint),
		})
	}
	return res
}

// Print renders Table 2.
func (r *Table2Result) Print(w io.Writer) {
	fprintf(w, "== Table 2: classification validation (errors vs detailed characterization) ==\n")
	fprintf(w, "%-14s %4s | %-20s | %-20s | %-20s | %-20s | %-20s\n",
		"class", "N", "scale-up", "scale-out", "heterogeneity", "interference", "exhaustive(8)")
	fprintf(w, "%-14s %4s | %6s %6s %6s | %6s %6s %6s | %6s %6s %6s | %6s %6s %6s | %6s %6s %6s\n",
		"", "", "avg", "p90", "max", "avg", "p90", "max", "avg", "p90", "max", "avg", "p90", "max", "avg", "p90", "max")
	for _, row := range r.Rows {
		p := func(s classify.ErrorStats) string {
			if s.N == 0 {
				return "     -      -      -"
			}
			return sprintfStats(s)
		}
		fprintf(w, "%-14s %4d | %s | %s | %s | %s | %s\n",
			row.AppClass, row.N, p(row.ScaleUp), p(row.ScaleOut), p(row.Hetero), p(row.Interf), p(row.Exhaustive))
	}
}

func sprintfStats(s classify.ErrorStats) string {
	return fmt.Sprintf("%6.1f %6.1f %6.1f", s.Avg*100, s.P90*100, s.Max*100)
}
