// Package config is a fixture stand-in: the key document marshals the whole
// Config, so every field reachable from it must be visible to
// encoding/json or be annotated nonsemantic.
package config

// CacheConfig is reached from Config by value, so its fields are audited
// too.
type CacheConfig struct {
	Sets int
	ways int // want "never reaches the cache keys"
}

// Config is the machine-description root.
type Config struct {
	ROBSize int
	L1I     CacheConfig
	debug   bool   // want "never reaches the cache keys"
	Skipped string `json:"-"` // want "never reaches the cache keys"
	//smtfetch:nonsemantic trace output path, no effect on simulated behavior
	trace string
}
