package subtree

// RandomXPE exposes the random-expression generator to the package's
// external tests, which walk trees through internal/oracle.
var RandomXPE = randomXPE
