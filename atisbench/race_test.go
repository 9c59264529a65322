//go:build race

package main

// Under the race detector sync.Pool drops items at random, so allocation
// counts stop repeating exactly.
const raceEnabled = true
