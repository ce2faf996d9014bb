//go:build race

package serve

// raceEnabled reports that this test binary runs under the race
// detector, where sync.Pool deliberately drops Puts at random and the
// pooled request scratch therefore cannot promise a fixed allocation
// count.
const raceEnabled = true
