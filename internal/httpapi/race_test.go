//go:build race

package httpapi

// raceEnabled reports whether this test binary was built with the race
// detector, which deliberately bypasses sync.Pool caching to widen race
// windows — making allocs-per-op assertions meaningless under -race.
const raceEnabled = true
