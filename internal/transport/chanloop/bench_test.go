package chanloop_test

import (
	"testing"

	"dfi/internal/transport/transporttest"
)

// BenchmarkVerbs is the per-verb benchmark (transporttest.Bench) on
// chanloop: what one WRITE, READ, fetch-add and SEND/RECV round trip cost
// the host when the poster executes them itself.
func BenchmarkVerbs(b *testing.B) { transporttest.Bench(b, newEnv) }
