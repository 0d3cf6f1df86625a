//go:build !race

package main

// raceEnabled reports whether the race detector instruments this build;
// the full-size baseline grid skips under it.
const raceEnabled = false
