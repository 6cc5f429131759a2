package chanloop_test

import (
	"sync"
	"testing"

	"dfi/internal/transport"
	"dfi/internal/transport/chanloop"
	"dfi/internal/transport/transporttest"
)

// newEnv builds a chanloop network with n endpoints whose actors are
// goroutines, each on its own context.
func newEnv(n int) transporttest.Env {
	net := chanloop.New()
	var wg sync.WaitGroup
	env := transporttest.Env{
		T: net,
		Go: func(name string, fn func(transport.Ctx)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(net.NewCtx())
			}()
		},
		Run: func() { wg.Wait() },
	}
	for i := 0; i < n; i++ {
		env.EP = append(env.EP, net.NewEndpoint())
	}
	return env
}

// TestTransportConformance runs the shared transport semantics suite
// against the goroutine backend. Run it with -race: conformance under
// the race detector is the backend's main correctness argument.
func TestTransportConformance(t *testing.T) {
	transporttest.Run(t, newEnv)
}
