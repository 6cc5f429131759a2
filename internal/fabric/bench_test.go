package fabric_test

import (
	"testing"

	"dfi/internal/transport/transporttest"
)

// BenchmarkVerbs is the per-verb benchmark (transporttest.Bench) on the
// DES fabric: host ns per verb including the kernel events it schedules
// and the process switches of its waits.
func BenchmarkVerbs(b *testing.B) { transporttest.Bench(b, newEnv) }
