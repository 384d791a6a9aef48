package broker

// ExactOverlapChecks sums the exact overlap checks the broker's
// advertisement indexes have run, for the tests outside the package.
func (b *Broker) ExactOverlapChecks() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var n uint64
	for _, ix := range b.advIndex {
		n += ix.Checks()
	}
	return n
}
