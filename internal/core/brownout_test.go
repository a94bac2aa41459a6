package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"cbvr/internal/features"
	"cbvr/internal/synthvid"
)

// brownoutCorpus is sized so the fused probe budget has real headroom
// above MinProbeRows: 1000 frames over 2 shards with ProbeFraction 0.25
// gives a level-0 budget of 125 rows against a floor of 16.
var brownoutCfg = synthvid.ClusterCorpusConfig{Frames: 1000, Seed: 3}

func brownoutCells() CellOptions {
	return CellOptions{MinShardRows: 1, TargetCellSize: 8, MinProbeRows: 16, ProbeFraction: 0.25, RebuildFraction: 0.25}
}

// TestBrownoutZeroIsInert pins the exactness contract: a search at level 0
// — including after the level was raised and then cleared — is
// bit-identical in results AND in work counters to one on an engine that
// never browned out, for both the fused and the (never-browned)
// single-kind paths.
func TestBrownoutZeroIsInert(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 2, Cells: brownoutCells()})
	loadClusterFrames(t, eng, brownoutCfg)
	q := synthvid.ClusterQueries(brownoutCfg, 1)[0]
	opt := SearchOptions{K: 10, NoPruning: true}

	base, baseStats, err := eng.SearchWithSetStats(q.Set, q.Bucket, opt)
	if err != nil {
		t.Fatal(err)
	}
	if baseStats.Brownout != 0 {
		t.Fatalf("fresh engine reports brownout %v", baseStats.Brownout)
	}

	eng.SetBrownout(0.8)
	browned, brownedStats, err := eng.SearchWithSetStats(q.Set, q.Bucket, opt)
	if err != nil {
		t.Fatal(err)
	}
	if brownedStats.Brownout != 0.8 {
		t.Fatalf("browned search recorded level %v, want 0.8", brownedStats.Brownout)
	}
	if brownedStats.RowEvals >= baseStats.RowEvals {
		t.Fatalf("brownout 0.8 did not shrink work: %d >= %d row evals", brownedStats.RowEvals, baseStats.RowEvals)
	}
	_ = browned

	// Load clears: level back to 0 must restore the exact pre-brownout
	// behaviour, not an approximation of it.
	eng.SetBrownout(0)
	after, afterStats, err := eng.SearchWithSetStats(q.Set, q.Bucket, opt)
	if err != nil {
		t.Fatal(err)
	}
	if afterStats.RowEvals != baseStats.RowEvals || afterStats.CellEvals != baseStats.CellEvals {
		t.Fatalf("work counters differ after brownout cleared: %+v vs %+v", afterStats, baseStats)
	}
	if len(after) != len(base) {
		t.Fatalf("result count differs after brownout cleared: %d vs %d", len(after), len(base))
	}
	for i := range after {
		if after[i] != base[i] {
			t.Fatalf("result %d differs after brownout cleared: %+v vs %+v", i, after[i], base[i])
		}
	}

	// Single-kind searches ride the exact bound-ordered sweep and must be
	// bit-identical to the reference even at maximum brownout.
	eng.SetBrownout(1)
	for _, kind := range []features.Kind{features.AllKinds()[0], features.AllKinds()[3]} {
		sopt := SearchOptions{K: 7, Kinds: []features.Kind{kind}, NoPruning: true}
		want, err := eng.SearchWithSetReference(q.Set, q.Bucket, sopt)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eng.SearchWithSetStats(q.Set, q.Bucket, sopt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("kind %v: %d results, want %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("kind %v result %d differs at max brownout: %+v vs %+v", kind, i, got[i], want[i])
			}
		}
	}
}

// TestBrownoutBudgetFloor pins the shrink target: at level 1 the fused
// probe budget IS MinProbeRows — a max-browned engine does exactly the
// same work, and returns exactly the same ranking, as one configured with
// a probe fraction so small that MinProbeRows is its whole budget.
func TestBrownoutBudgetFloor(t *testing.T) {
	browned := openCellEngine(t, Options{SearchShards: 2, Cells: brownoutCells()})
	loadClusterFrames(t, browned, brownoutCfg)
	browned.SetBrownout(1)

	floorCells := brownoutCells()
	floorCells.ProbeFraction = 1e-6 // budget = max(MinProbeRows, ~0) = MinProbeRows
	floor := openCellEngine(t, Options{SearchShards: 2, Cells: floorCells})
	loadClusterFrames(t, floor, brownoutCfg)

	var prevEvals int64 = -1
	for qi, q := range synthvid.ClusterQueries(brownoutCfg, 3) {
		opt := SearchOptions{K: 10, NoPruning: true}
		got, gotStats, err := browned.SearchWithSetStats(q.Set, q.Bucket, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := floor.SearchWithSetStats(q.Set, q.Bucket, opt)
		if err != nil {
			t.Fatal(err)
		}
		if gotStats.RowEvals != wantStats.RowEvals {
			t.Fatalf("query %d: max brownout paid %d row evals, MinProbeRows config paid %d — floors diverge",
				qi, gotStats.RowEvals, wantStats.RowEvals)
		}
		if gotStats.PrunedShards == 0 {
			t.Fatalf("query %d: max-browned search did not take the pruned path", qi)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d result %d: %+v vs %+v", qi, i, got[i], want[i])
			}
		}
		prevEvals = gotStats.RowEvals
	}
	_ = prevEvals
}

// TestBrownoutMonotoneShrink checks the budget shrink is monotone in the
// level: more pressure never does more work.
func TestBrownoutMonotoneShrink(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 2, Cells: brownoutCells()})
	loadClusterFrames(t, eng, brownoutCfg)
	q := synthvid.ClusterQueries(brownoutCfg, 1)[0]
	opt := SearchOptions{K: 10, NoPruning: true}
	var prev int64 = math.MaxInt64
	for _, lvl := range []float64{0, 0.25, 0.5, 0.75, 1} {
		eng.SetBrownout(lvl)
		_, stats, err := eng.SearchWithSetStats(q.Set, q.Bucket, opt)
		if err != nil {
			t.Fatal(err)
		}
		if stats.RowEvals > prev {
			t.Fatalf("level %v paid %d row evals, more than the previous level's %d", lvl, stats.RowEvals, prev)
		}
		prev = stats.RowEvals
	}
}

// TestBrownoutRefusesFullRank checks K<=0 searches — frame rankings and
// video DTW sweeps — are refused with ErrOverloaded at or above the
// refusal level and served again below it.
func TestBrownoutRefusesFullRank(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 2, Cells: brownoutCells()})
	frames := loadClusterFrames(t, eng, synthvid.ClusterCorpusConfig{Frames: 64, Seed: 5})
	q := synthvid.ClusterQueries(synthvid.ClusterCorpusConfig{Frames: 64, Seed: 5}, 1)[0]

	eng.SetBrownout(BrownoutRefuseFullRank)
	if _, _, err := eng.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("K=0 frame search at refusal level: %v, want ErrOverloaded", err)
	}
	qsets := []*features.Set{frames[0].Set}
	if _, err := eng.searchVideoSets(context.Background(), qsets, SearchOptions{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("K=0 video search at refusal level: %v, want ErrOverloaded", err)
	}
	// Bounded searches still serve at the same level.
	if _, _, err := eng.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{K: 5}); err != nil {
		t.Fatalf("bounded search at refusal level: %v", err)
	}
	if _, err := eng.searchVideoSets(context.Background(), qsets, SearchOptions{K: 2}); err != nil {
		t.Fatalf("bounded video search at refusal level: %v", err)
	}
	// Below the refusal level the full ranking is served again.
	eng.SetBrownout(BrownoutRefuseFullRank / 2)
	if _, _, err := eng.SearchWithSetStats(q.Set, q.Bucket, SearchOptions{}); err != nil {
		t.Fatalf("K=0 search below refusal level: %v", err)
	}
}

// TestSetBrownoutClamps pins the level sanitation: out-of-range and NaN
// inputs must fail open (0) or saturate (1), never poison the budget math.
func TestSetBrownoutClamps(t *testing.T) {
	eng := openCellEngine(t, Options{SearchShards: 1})
	for _, tc := range []struct{ in, want float64 }{
		{-3, 0}, {0, 0}, {0.4, 0.4}, {2, 1}, {math.NaN(), 0},
	} {
		eng.SetBrownout(tc.in)
		if got := eng.BrownoutLevel(); got != tc.want {
			t.Fatalf("SetBrownout(%v) → level %v, want %v", tc.in, got, tc.want)
		}
	}
}
