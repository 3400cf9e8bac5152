package typelang

// ProbeWork runs f with the accumulator work probe on and returns what
// it counted: node and group visits made by reset, seekField calls, and
// the comparisons those calls made. f must not use accumulators from
// more than one goroutine at a time, and no other test may use one
// concurrently.
func ProbeWork(f func()) (resetVisits, seeks, seekCompares int64) {
	p := &workProbe{}
	probe = p
	defer func() { probe = nil }()
	f()
	return p.resetVisits, p.seeks, p.seekCompares
}
