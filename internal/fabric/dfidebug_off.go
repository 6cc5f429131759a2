//go:build !dfidebug

package fabric

// dfidebug turns the fabric's invariant checks on (go build -tags dfidebug).
const dfidebug = false
