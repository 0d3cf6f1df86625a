package experiment

import (
	"testing"

	"smtfetch/internal/config"
)

// TestCellSeedGolden pins the derived simulator seed for a fixed cell set.
// Every seeded result in every checked-in multi-seed baseline depends on
// CellSeed's exact output: a refactor of the seed string, the hash, or the
// mixing function would silently shift every cell's effective seed and
// invalidate all replication statistics computed over old files. If this
// test fails, the change redefines every seeded measurement — regenerate
// every baseline and say so in the PR, or don't make the change.
func TestCellSeedGolden(t *testing.T) {
	golden := []struct {
		cell Cell
		want uint64
	}{
		{Cell{"2_MIX", config.GShareBTB, config.ICount18, 1}, 1561396949252774212},
		{Cell{"2_MIX", config.StreamFetch, config.ICount18, 1}, 1561396949252774212},
		{Cell{"2_MIX", config.StreamFetch, config.ICount18, 2}, 5965094651332650388},
		{Cell{"2_MIX", config.StreamFetch, config.ICount18, 3}, 15421552200846942158},
		{Cell{"4_MIX", config.GSkewFTB, config.ICount216, 10}, 2452266572754634173},
		{Cell{"8_MIX", config.StreamFetch, config.RR28, 7}, 13254360413762247549},
	}
	for _, g := range golden {
		if got := CellSeed(g.cell); got != g.want {
			t.Errorf("CellSeed(%s) = %d, want %d — seed derivation changed; every seeded baseline is now invalid",
				g.cell.Key(), got, g.want)
		}
	}
}
