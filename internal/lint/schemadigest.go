package lint

// schemaReg registers one versioned serialization schema: the package and
// version constant that guard it, the struct roots whose field sets define
// the wire format, and the checked-in digest of those field sets.
//
// The digest workflow is the same strict two-way diff discipline as the
// escape-analysis allowlist: change the serialized field set without
// bumping the version constant and schemaver fails with the new digest to
// paste; bump the constant without updating this table and schemaver fails
// because the recorded Version is stale. Every schema change therefore
// leaves an explicit, reviewed edit in this file.
type schemaReg struct {
	// Pkg is the import path owning the version constant and roots.
	Pkg string
	// Const names the package-level version constant.
	Const string
	// Version is the recorded value of that constant.
	Version int64
	// Mode selects how fields are folded into the digest: "json" digests
	// exported fields with their json tags (encoding/json envelopes);
	// "snap" digests non-//smtfetch:transient fields (the snap byte
	// stream), folding cross-package snapshot structs by their own
	// exported digests.
	Mode string
	// Roots are the struct type names (in Pkg) whose field sets the
	// digest covers.
	Roots []string
	// Digest is the checked-in FNV-64a digest of the roots' field sets.
	Digest string
}

// schemaRegs is the checked-in schema registry. Tests may swap it to run
// the analyzer against fixture packages.
var schemaRegs = []schemaReg{
	{
		Pkg:     "smtfetch/internal/experiment",
		Const:   "SchemaVersion",
		Version: 2,
		Mode:    "json",
		Roots:   []string{"resultsFile"},
		Digest:  "c228ffc2ddefeb37",
	},
	{
		Pkg:     "smtfetch/internal/experiment",
		Const:   "AggregateSchemaVersion",
		Version: 1,
		Mode:    "json",
		Roots:   []string{"aggregateFile"},
		Digest:  "15dd6705487e67e6",
	},
	{
		Pkg:     "smtfetch/internal/server",
		Const:   "CacheSchemaVersion",
		Version: 2,
		Mode:    "json",
		Roots:   []string{"cacheFile"},
		Digest:  "f94a45bbaf8bf851",
	},
	{
		Pkg:     "smtfetch/internal/core",
		Const:   "SnapshotVersion",
		Version: 2,
		Mode:    "snap",
		Roots:   []string{"Sim"},
		Digest:  "b7882340f146386e",
	},
}
