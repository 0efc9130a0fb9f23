//go:build linux

package fleet

import (
	"context"
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"
)

// TestChaosFleetUnreachableFirstShard: the host of the first shard of three
// drops every connection attempt, as a hung or blackholed host does, and the
// gateway holds no idle connection to it, so its exchange must dial, and the
// dial lasts the whole deadline. That exchange runs apart: shards 1 and 2
// are sent to at once and read live, the fleet answers inside the budget
// with shard 0 alone widened, and the breakers of shards 1 and 2 stay closed
// while shard 0's, charged for each fan-out, opens.
func TestChaosFleetUnreachableFirstShard(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{n: 3, gw: func(o *Options) { o.ShardTimeout = 300 * time.Millisecond }})
	h.gw.ProbeAll(context.Background()) // worlds read, connections pooled
	body, k, want := warmFirstShardOffering(t, h)
	tg, err := newTarget("http://" + unreachableAddr(t))
	if err != nil {
		t.Fatal(err)
	}
	h.gw.members[0].primary = tg
	for round := 0; round < 2; round++ { // the breakers' threshold
		assertFirstShardDead(t, h, fmt.Sprintf("unreachable-first-shard offering %d", round), body, k, want)
	}
	st := h.gw.Status()
	if st[0].Breaker != "open" {
		t.Fatalf("the unreachable shard's breaker is %q after two failed fan-outs, want open", st[0].Breaker)
	}
	for i := 1; i < 3; i++ {
		if st[i].Breaker != "closed" {
			t.Fatalf("shard %d answered every fan-out and its breaker is %q", i, st[i].Breaker)
		}
	}
}

// unreachableAddr is a loopback address whose connects hang: a listener with
// a backlog of none, whose accept queue one connection that is never
// accepted fills, so the kernel drops every SYN after it.
func unreachableAddr(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	queued, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = queued.Close() })
	if c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond); err == nil {
		_ = c.Close()
		t.Skip("this kernel completes a connect to a full accept queue; no host to stand for an unreachable one")
	}
	return addr
}
