package transport

// A panic recovered on a read loop is a bug, not an outcome: in this
// package's tests it is re-raised after it is counted, so any test or fuzz
// target that makes the broker panic fails.
func init() { repanic = true }
