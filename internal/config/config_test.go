package config

import (
	"strings"
	"testing"
)

func TestEngineStringParseRoundTrip(t *testing.T) {
	for _, e := range Engines() {
		got, err := ParseEngine(e.String())
		if err != nil {
			t.Errorf("ParseEngine(%q): %v", e.String(), err)
			continue
		}
		if got != e {
			t.Errorf("ParseEngine(%q) = %v, want %v", e.String(), got, e)
		}
	}
}

func TestParseEngineAliases(t *testing.T) {
	cases := []struct {
		in   string
		want Engine
	}{
		{"gshare", GShareBTB},
		{"GSHARE+BTB", GShareBTB},
		{" gskew ", GSkewFTB},
		{"gskew+ftb", GSkewFTB},
		{"stream", StreamFetch},
		{"StreamFetch", StreamFetch},
	}
	for _, c := range cases {
		got, err := ParseEngine(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseEngine(%q) = %v,%v, want %v,nil", c.in, got, err, c.want)
		}
	}
}

func TestParseEngineUnknown(t *testing.T) {
	for _, bad := range []string{"", "tage", "gshare+FTB2", "42"} {
		if _, err := ParseEngine(bad); err == nil {
			t.Errorf("ParseEngine(%q) succeeded, want error", bad)
		}
	}
}

func TestPolicyStringParseRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v,%v, want %v,nil", p.String(), got, err, p)
		}
	}
	if got, err := ParsePolicy("roundrobin"); err != nil || got != RoundRobin {
		t.Errorf("ParsePolicy(roundrobin) = %v,%v, want RR,nil", got, err)
	}
	if _, err := ParsePolicy("LRU"); err == nil {
		t.Error("ParsePolicy(LRU) succeeded, want error")
	}
}

// TestParsePolicyErrorListsAllPolicies pins the fix for the hardcoded
// "want ICOUNT or RR" message: the error must name every policy that
// Policies() returns, so the hint can never drift as policies are added.
func TestParsePolicyErrorListsAllPolicies(t *testing.T) {
	_, err := ParsePolicy("LRU")
	if err == nil {
		t.Fatal("ParsePolicy(LRU) succeeded, want error")
	}
	for _, p := range Policies() {
		if !strings.Contains(err.Error(), p.String()) {
			t.Errorf("ParsePolicy error %q does not mention %v", err, p)
		}
	}
}

func TestFetchPolicyStringParseRoundTrip(t *testing.T) {
	for _, fp := range AllFetchPolicies() {
		s := fp.String()
		got, err := ParseFetchPolicy(s)
		if err != nil {
			t.Errorf("ParseFetchPolicy(%q): %v", s, err)
			continue
		}
		if got != fp {
			t.Errorf("ParseFetchPolicy(%q) = %+v, want %+v", s, got, fp)
		}
		if got.String() != s {
			t.Errorf("round-trip of %q produced %q", s, got.String())
		}
	}
}

func TestParseFetchPolicyErrors(t *testing.T) {
	for _, bad := range []string{
		"", "ICOUNT", "ICOUNT.2", "ICOUNT.2.8.1", "LRU.2.8",
		"ICOUNT.x.8", "ICOUNT.2.y", "ICOUNT.0.8", "ICOUNT.2.0", "ICOUNT.-1.8",
	} {
		if _, err := ParseFetchPolicy(bad); err == nil {
			t.Errorf("ParseFetchPolicy(%q) succeeded, want error", bad)
		}
	}
}

func TestDefaultValidates(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Default() does not validate: %v", err)
	}
	for _, e := range Engines() {
		for _, fp := range AllFetchPolicies() {
			c := Default()
			c.Engine = e
			c.FetchPolicy = fp
			if err := c.Validate(); err != nil {
				t.Errorf("Default with %v/%v: %v", e, fp, err)
			}
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		errFrag string
	}{
		{"threads0", func(c *Config) { c.FetchPolicy.Threads = 0 }, "threads"},
		{"threads3", func(c *Config) { c.FetchPolicy.Threads = 3 }, "threads"},
		{"width0", func(c *Config) { c.FetchPolicy.Width = 0 }, "width"},
		{"smallFetchBuf", func(c *Config) { c.FetchBufferSize = 4 }, "fetch buffer"},
		{"ftq0", func(c *Config) { c.FTQSize = 0 }, "FTQ"},
		{"threadsNeg", func(c *Config) { c.MaxThreads = 0 }, "MaxThreads"},
		{"robTiny", func(c *Config) { c.ROBSize = 1 }, "ROB"},
		{"noFrontStages", func(c *Config) { c.DecodeStages, c.RenameStages = 0, 0 }, "stages"},
		{"negativeFrontStage", func(c *Config) { c.DecodeStages, c.RenameStages = -1, 3 }, "stages"},
		{"gshareNPOT", func(c *Config) { c.GShareEntries = 1000 }, "gshare"},
		{"gskewNPOT", func(c *Config) { c.GSkewEntries = 1000 }, "gskew"},
		{"cacheLineNPOT", func(c *Config) { c.L1D.LineBytes = 48 }, "L1D"},
		{"cacheZero", func(c *Config) { c.L2.SizeBytes = 0 }, "L2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			tc.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("Validate succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.errFrag) {
				t.Fatalf("error %q does not mention %q", err, tc.errFrag)
			}
		})
	}
}

func TestCacheSets(t *testing.T) {
	c := CacheConfig{SizeBytes: 32 * 1024, Assoc: 2, LineBytes: 64}
	if got := c.Sets(); got != 256 {
		t.Fatalf("Sets = %d, want 256", got)
	}
}
