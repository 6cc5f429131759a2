//go:build dfidebug

package fabric

import (
	"strings"
	"testing"

	"dfi/internal/sim"
	"dfi/internal/transport"
)

func init() {
	// That test reuses its source early on purpose: it shows the hazard
	// the check exists to catch.
	reuseAllowed["dfi/internal/fabric.TestUnsignaledReuseBeforeCompletionCorrupts.func1"] = true
}

// TestWriteCheckNamesPostingSite: a Write whose source is rewritten
// before its commit stops the run, and the failure names the function
// that posted it.
func TestWriteCheckNamesPostingSite(t *testing.T) {
	k, c := testCluster(t, 2)
	qp, _ := c.Dial(c.Node(0), c.Node(1))
	mr := c.OpenRegion(c.Node(1), 64)
	src := make([]byte, 32)
	k.Spawn("hasty-writer", func(p *sim.Proc) {
		qp.Write(p, src, transport.Addr{MR: mr}, transport.WriteOptions{})
		src[0] = 1
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "fabric.TestWriteCheckNamesPostingSite.func1 (") || !strings.Contains(err.Error(), "dfidebug_test.go:") {
		t.Fatalf("Run() = %v, want the check's panic naming the posting closure", err)
	}
}
