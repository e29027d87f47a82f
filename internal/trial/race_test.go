//go:build race

package trial

// raceEnabled reports a race-detector build. There the 0-allocs/op gates
// measure the runtime, not the kernel: the detector slows a phase so much
// that testing.Benchmark settles on b.N ≈ 6, and the handful of sudogs the
// runtime allocates when a worker team parks on its sync.Cond and
// WaitGroup after each probe's runtime.GC (1–4 per probe, none in a normal
// build) then reads as 1 alloc/op.
const raceEnabled = true
