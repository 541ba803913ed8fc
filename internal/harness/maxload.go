package harness

import (
	"vqf/internal/core"
	"vqf/internal/minifilter"
	"vqf/internal/stats"
	"vqf/internal/workload"
)

// MaxLoadRow is one configuration of the §3.4/§6.2 maximum-load-factor
// experiments: the load factor at which the first insertion fails.
type MaxLoadRow struct {
	Config  string
	MaxLoad float64
}

// RunMaxLoad reproduces the paper's maximum-load-factor measurements for the
// VQF's design choices: independent second hash (94.85% in the paper), the
// xor trick (94.40%), and the shortcut optimization at 75%, 87.5% and
// 95.83% thresholds (93.56%, 90%, 64.83%).
func RunMaxLoad(nslots uint64, seed uint64) []MaxLoadRow {
	type filter interface {
		Insert(h uint64) bool
		LoadFactor() float64
	}
	vqf := func(opts core.Options) func() filter {
		return func() filter { return core.NewFilter8(nslots, opts) }
	}
	configs := []struct {
		name string
		new  func() filter
	}{
		// The independent second hash is an ablation (§3.4), built only here.
		{"independent-hash, no shortcut", func() filter { return newScalar8(nslots, false, true) }},
		{"xor-trick, no shortcut", vqf(core.Options{NoShortcut: true})},
		{"shortcut 75% (36/48)", vqf(core.Options{})},
		{"shortcut 87.5% (42/48)", vqf(core.Options{ShortcutThreshold: 42})},
		{"shortcut 95.83% (46/48)", vqf(core.Options{ShortcutThreshold: 46})},
	}
	rows := make([]MaxLoadRow, 0, len(configs))
	for _, c := range configs {
		f := c.new()
		s := workload.NewStream(seed)
		for f.Insert(s.Next()) {
		}
		rows = append(rows, MaxLoadRow{Config: c.name, MaxLoad: f.LoadFactor()})
	}
	return rows
}

// ChoiceStats summarizes block-occupancy dispersion for a placement policy —
// the design-choice ablation behind Theorem 1 (power-of-two-choices keeps
// the maximum block load near the mean, enabling high load factors). The
// JSON tags are the schema of BENCH_choices.json.
type ChoiceStats struct {
	Policy    string  `json:"policy"`
	Load      float64 `json:"load"`
	MeanOcc   float64 `json:"mean_occ"`
	MinOcc    uint    `json:"min_occ"`
	MaxOcc    uint    `json:"max_occ"`
	StddevOcc float64 `json:"stddev_occ"`
	FullPct   float64 `json:"full_pct"` // percent of blocks at capacity
}

// RunChoices fills a VQF to the target load under two placement policies —
// two-choice (paper) and greedy single-choice (always the primary block,
// via a shortcut threshold equal to the block capacity) — and reports the
// block-occupancy distribution of each.
func RunChoices(nslots uint64, load float64, seed uint64) []ChoiceStats {
	policies := []struct {
		name string
		opts core.Options
	}{
		{"two-choice", core.Options{NoShortcut: true}},
		{"single-choice-greedy", core.Options{ShortcutThreshold: minifilter.B8Slots}},
	}
	out := make([]ChoiceStats, 0, len(policies))
	for _, p := range policies {
		f := core.NewFilter8(nslots, p.opts)
		n := uint64(float64(f.Capacity()) * load)
		s := workload.NewStream(seed)
		for f.Count() < n {
			if !f.Insert(s.Next()) {
				break
			}
		}
		occ := stats.BuildOccupancy(f.BlockOccupancies(), minifilter.B8Slots)
		out = append(out, ChoiceStats{
			Policy:    p.name,
			Load:      f.LoadFactor(),
			MeanOcc:   occ.Mean,
			MinOcc:    occ.Min,
			MaxOcc:    occ.Max,
			StddevOcc: occ.Stddev,
			FullPct:   float64(occ.FullBlocks) / float64(occ.Blocks) * 100,
		})
	}
	return out
}
