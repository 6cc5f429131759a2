package fabric_test

import (
	"testing"

	"dfi/internal/fabric"
	"dfi/internal/sim"
	"dfi/internal/transport"
	"dfi/internal/transport/transporttest"
)

// newEnv builds an n-node DES cluster (default config, payload bytes
// copied) whose actors are sim processes.
func newEnv(n int) transporttest.Env {
	k := sim.New(1)
	c := fabric.NewCluster(k, n, fabric.DefaultConfig())
	env := transporttest.Env{
		T: c,
		Go: func(name string, fn func(transport.Ctx)) {
			k.Spawn(name, func(p *sim.Proc) { fn(p) })
		},
		Run: func() { k.Run() },
	}
	for i := 0; i < n; i++ {
		env.EP = append(env.EP, c.Node(i))
	}
	return env
}

// TestTransportConformance runs the shared transport semantics suite
// against the DES fabric, the reference backend.
func TestTransportConformance(t *testing.T) {
	transporttest.Run(t, newEnv)
}
