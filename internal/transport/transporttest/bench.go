package transporttest

import (
	"encoding/binary"
	"testing"

	"dfi/internal/transport"
)

// Bench is the per-verb benchmark of a backend: the building blocks the
// data path composes, one at a time, over the environment the conformance
// suite runs on. It reports host ns/op and allocs/op — on the DES fabric
// that is the host cost of a verb including its kernel events, on
// chanloop the verb itself.
//
//   - Write8K: a signaled 8 KiB + 16 B WRITE with a 16 B CommitTail (a
//     bandwidth-mode segment), its completion taken before the next.
//   - Write64: 64 B unsignaled WRITEs, every 64th signaled and waited for
//     (selective signaling).
//   - Read16: a signaled 16 B READ and its completion (a footer probe).
//   - FetchAdd: a blocking fetch-and-add.
//   - SendRecv64: one 64 B SEND/RECV round trip between two actors.
//
// Every WRITE carries bytes its destination does not hold yet, as a ring
// does, so a backend that skips identical bytes still moves them.
func Bench(b *testing.B, newEnv NewEnv) {
	cases := []struct {
		name string
		fn   func(b *testing.B, env Env)
	}{
		{"Write8K", func(b *testing.B, env Env) { benchWrite(b, env, 8192+16, 16, 1) }},
		{"Write64", func(b *testing.B, env Env) { benchWrite(b, env, 64, 0, 64) }},
		{"Read16", benchRead},
		{"FetchAdd", benchFetchAdd},
		{"SendRecv64", benchSendRecv},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			bc.fn(b, newEnv(2))
		})
	}
}

// timed runs loop as an actor and drives the environment, starting the
// clock where the loop starts: a goroutine backend runs an actor from Go
// on, not from Run on.
func timed(b *testing.B, env Env, name string, loop func(p transport.Ctx)) {
	env.Go(name, func(p transport.Ctx) {
		b.ResetTimer()
		loop(p)
	})
	env.Run()
}

// benchWrite posts b.N WRITEs of size bytes, signaling and waiting for
// every signalEvery-th.
func benchWrite(b *testing.B, env Env, size, tail, signalEvery int) {
	mr := env.T.OpenRegion(env.EP[1], size)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])
	timed(b, env, "writer", func(p transport.Ctx) {
		src := make([]byte, size)
		dst := transport.Addr{MR: mr, Off: 0}
		for i := 1; i <= b.N; i++ {
			binary.LittleEndian.PutUint64(src, uint64(i))
			binary.LittleEndian.PutUint64(src[size-8:], uint64(i))
			signaled := i%signalEvery == 0
			qa.Write(p, src, dst, transport.WriteOptions{CommitTail: tail, Signaled: signaled, ID: uint64(i)})
			if signaled {
				qa.SendCQ().Wait(p)
			}
		}
	})
}

func benchRead(b *testing.B, env Env) {
	mr := env.T.OpenRegion(env.EP[1], 16)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])
	timed(b, env, "reader", func(p transport.Ctx) {
		dst := make([]byte, 16)
		for i := 0; i < b.N; i++ {
			qa.Read(p, dst, transport.Addr{MR: mr, Off: 0}, true, uint64(i))
			qa.SendCQ().Wait(p)
		}
	})
}

func benchFetchAdd(b *testing.B, env Env) {
	mr := env.T.OpenRegion(env.EP[1], 8)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])
	timed(b, env, "adder", func(p transport.Ctx) {
		for i := 0; i < b.N; i++ {
			qa.FetchAdd(p, transport.Addr{MR: mr, Off: 0}, 1)
		}
	})
}

// benchSendRecv plays ping-pong: every receive is posted before the send
// it matches, so no message takes the unmatched-arrival path.
func benchSendRecv(b *testing.B, env Env) {
	qa, qb := env.T.Dial(env.EP[0], env.EP[1])
	qa.PostRecv(make([]byte, 64), 0)
	qb.PostRecv(make([]byte, 64), 0)
	env.Go("pong", func(p transport.Ctx) {
		msg := make([]byte, 64)
		for i := 0; i < b.N; i++ {
			qb.PostRecv(qb.RecvCQ().Wait(p).Buf, 0)
			qb.Send(p, msg, false, 0)
		}
	})
	timed(b, env, "ping", func(p transport.Ctx) {
		msg := make([]byte, 64)
		for i := 0; i < b.N; i++ {
			qa.Send(p, msg, false, 0)
			qa.PostRecv(qa.RecvCQ().Wait(p).Buf, 0)
		}
	})
}
