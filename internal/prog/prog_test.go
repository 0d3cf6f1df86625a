package prog_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime/debug"
	"testing"

	"smtfetch/internal/bench"
	"smtfetch/internal/isa"
	"smtfetch/internal/prog"
)

// trace returns the first n instructions of p's committed-path stream.
func trace(p *prog.Program, seed uint64, n int) []isa.Instruction {
	s := p.NewStream(seed)
	out := make([]isa.Instruction, n)
	for i := range out {
		out[i] = *s.Peek(0)
		s.Advance(1)
	}
	return out
}

// TestBuildDeterministic: a (profile, seed) pair names one program and one
// instruction stream. Every cell of a (workload, seed) simulates the
// programs this builds, so nondeterminism here would make cells that must
// agree diverge.
func TestBuildDeterministic(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "twolf"} {
		pf := bench.MustProfile(name)
		a, b := prog.Build(pf, 7), prog.Build(pf, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two builds at seed 7 differ", name)
		}
		if !reflect.DeepEqual(trace(a, 7, 20_000), trace(b, 7, 20_000)) {
			t.Errorf("%s: the first 20k stream instructions differ between builds", name)
		}
		if reflect.DeepEqual(trace(a, 7, 2_000), trace(prog.Build(pf, 8), 8, 2_000)) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
	}
}

// TestProfilesMatchTable1 checks every benchmark's synthetic program
// against its profile on seeds 1–8:
//   - the block count is exactly StaticBlocks;
//   - AvgStaticBBSize is within 6% of AvgBBSize (Table 1) at every seed
//     (the largest gap measured is 5.1%, mcf);
//   - over the first 200k instructions of each seed's stream, the mean
//     dynamic load share of non-branch instructions is within 0.06 of
//     LoadFrac (largest gap 0.046, parser) and the store share within
//     0.03 of StoreFrac (largest gap 0.012, vpr).
//
// The shares are tested as a mean over seeds because one program's hot
// loops can dominate its stream: twolf at seed 2 issues 59% loads and
// almost no stores against a 28%/10% profile.
func TestProfilesMatchTable1(t *testing.T) {
	const (
		seeds    = 8
		instrs   = 200_000
		bbTol    = 0.06
		loadTol  = 0.06
		storeTol = 0.03
	)
	for _, name := range bench.Names() {
		pf := bench.MustProfile(name)
		var loadShare, storeShare float64
		for seed := uint64(1); seed <= seeds; seed++ {
			p := prog.Build(pf, seed)
			if p.NumBlocks() != pf.StaticBlocks {
				t.Errorf("%s seed %d: %d blocks, want StaticBlocks %d", name, seed, p.NumBlocks(), pf.StaticBlocks)
			}
			if got := p.AvgStaticBBSize(); math.Abs(got/pf.AvgBBSize-1) > bbTol {
				t.Errorf("%s seed %d: AvgStaticBBSize %.3f, more than %.0f%% from AvgBBSize %.2f",
					name, seed, got, 100*bbTol, pf.AvgBBSize)
			}
			var loads, stores, nonBranch int
			for _, in := range trace(p, seed, instrs) {
				switch in.Class {
				case isa.Load:
					loads++
				case isa.Store:
					stores++
				case isa.Branch:
					continue
				}
				nonBranch++
			}
			loadShare += float64(loads) / float64(nonBranch) / seeds
			storeShare += float64(stores) / float64(nonBranch) / seeds
		}
		if math.Abs(loadShare-pf.LoadFrac) > loadTol {
			t.Errorf("%s: mean dynamic load share %.3f, more than %.2f from LoadFrac %.2f", name, loadShare, loadTol, pf.LoadFrac)
		}
		if math.Abs(storeShare-pf.StoreFrac) > storeTol {
			t.Errorf("%s: mean dynamic store share %.3f, more than %.2f from StoreFrac %.2f", name, storeShare, storeTol, pf.StoreFrac)
		}
	}
}

// streamHash returns an FNV-64a hash of every field of the first n
// committed-path instructions of p's stream at seed.
func streamHash(p *prog.Program, seed uint64, n int) uint64 {
	h := fnv.New64a()
	s := p.NewStream(seed)
	var b []byte
	for i := 0; i < n; i++ {
		in := s.Peek(0)
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(in.PC))
		b = binary.LittleEndian.AppendUint64(b, in.PathSeq)
		b = append(b, byte(in.Class), byte(in.BrKind), boolByte(in.HasDest), boolByte(in.Taken))
		b = binary.LittleEndian.AppendUint16(b, in.Dep1)
		b = binary.LittleEndian.AppendUint16(b, in.Dep2)
		b = binary.LittleEndian.AppendUint64(b, uint64(in.EffAddr))
		b = binary.LittleEndian.AppendUint64(b, uint64(in.Target))
		b = binary.LittleEndian.AppendUint64(b, uint64(in.FallThrough))
		h.Write(b)
		s.Advance(1)
	}
	return h.Sum64()
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// TestProfileStreamsPinned pins the programs of all twelve profiles, not
// only the four the baseline sweep runs: for each profile, the hashes of
// the first 200k committed-path instructions at seeds 1 and 2 must equal
// the values recorded when the test was written. A change to Build, the
// Stream walk or rng that moves any instruction of any profile fails it;
// only a change meant to alter results may update the table.
func TestProfileStreamsPinned(t *testing.T) {
	const instrs = 200_000
	want := map[string][2]uint64{
		"bzip2":   {0x9fdab634f0b9c08a, 0x4cb7e5e00b9e2615},
		"crafty":  {0x0a693063f900777e, 0xad935cfdeaa6d4c4},
		"eon":     {0xed8f070930d363d3, 0xcf232b585efc03b7},
		"gap":     {0x18a7210efe2580e5, 0x585c615c4fc3ac50},
		"gcc":     {0xe058d8decf1e4999, 0x78aea09b667da897},
		"gzip":    {0x6dd887bbd1dcfcf5, 0xc7a55ca0af474600},
		"mcf":     {0x56954a6868102938, 0x340627f0147f0970},
		"parser":  {0x4cd6bb1ebf394b81, 0x8dbc3e76d8a35344},
		"perlbmk": {0x89bc5964fd015040, 0x9bf6b9e2bf2f3880},
		"twolf":   {0x4547f913a6cef3d2, 0x5edb2749e0943645},
		"vortex":  {0x8b319df482f3cc79, 0x622819820a802b3d},
		"vpr":     {0x7da9e3140eedd955, 0x56a2a3c481927c9e},
	}
	for _, name := range bench.Names() {
		pf := bench.MustProfile(name)
		var got [2]uint64
		for i, seed := range []uint64{1, 2} {
			got[i] = streamHash(prog.Build(pf, seed), seed, instrs)
		}
		if got != want[name] {
			t.Errorf("%s: stream hashes at seeds 1 and 2 are %#x, %#x, want %#x, %#x",
				name, got[0], got[1], want[name][0], want[name][1])
		}
	}
}

// TestBuildAllocsBounded: Build lays a program out in a few flat arenas,
// so its allocation count is small and does not grow with the program.
// gcc is the largest profile and mcf the smallest. The collector is off
// while counting, because a collection cycle allocates too.
func TestBuildAllocsBounded(t *testing.T) {
	const maxAllocs = 16
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(name string) float64 {
		pf := bench.MustProfile(name)
		return testing.AllocsPerRun(5, func() { prog.Build(pf, 1) })
	}
	gcc, mcf := allocs("gcc"), allocs("mcf")
	if gcc >= maxAllocs {
		t.Errorf("Build(gcc) makes %.0f allocations, want fewer than %d", gcc, maxAllocs)
	}
	if gcc != mcf {
		t.Errorf("Build makes %.0f allocations for gcc but %.0f for mcf: the count grows with the program", gcc, mcf)
	}
}

// TestValidateClampsStaticBlocks: the arenas index blocks, instructions
// and indirect targets with int32, so Validate caps the block count.
func TestValidateClampsStaticBlocks(t *testing.T) {
	if got := (prog.Profile{StaticBlocks: 1 << 40}).Validate().StaticBlocks; got != prog.MaxStaticBlocks {
		t.Errorf("Validate keeps StaticBlocks %d, want the cap %d", got, prog.MaxStaticBlocks)
	}
}

// TestBuildNaNFractions: Build validates NaN fractions away, sizes its
// arenas and builds the program.
func TestBuildNaNFractions(t *testing.T) {
	nan := math.NaN()
	p := prog.Build(prog.Profile{Name: "nan", StaticBlocks: 64, LoadFrac: nan, IndirectFrac: nan}, 1)
	if p.NumBlocks() != 64 {
		t.Errorf("%d blocks, want 64", p.NumBlocks())
	}
}

// TestValidateRejectsNaN: a NaN in any float field of a profile
// validates to a number. A NaN fails every comparison, so a clamp written
// as v < lo lets it through, and a NaN LoadFrac would build a program
// with no loads, stores, multiplies or FP ops.
func TestValidateRejectsNaN(t *testing.T) {
	base := bench.MustProfile("gcc")
	typ := reflect.TypeOf(base)
	floats := 0
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Float64 {
			continue
		}
		floats++
		p := base
		reflect.ValueOf(&p).Elem().Field(i).SetFloat(math.NaN())
		v := reflect.ValueOf(p.Validate())
		for j := 0; j < typ.NumField(); j++ {
			if f := v.Field(j); f.Kind() == reflect.Float64 && math.IsNaN(f.Float()) {
				t.Errorf("%s = NaN validates to %s = NaN", typ.Field(i).Name, typ.Field(j).Name)
			}
		}
	}
	if floats < 20 {
		t.Fatalf("found %d float fields in Profile, want at least 20", floats)
	}
}

// BenchmarkBuild measures building each profile's program.
func BenchmarkBuild(b *testing.B) {
	for _, name := range bench.Names() {
		pf := bench.MustProfile(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prog.Build(pf, uint64(i))
			}
		})
	}
}
