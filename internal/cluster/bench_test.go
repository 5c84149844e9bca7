package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wdm"
)

// BenchmarkReplicatedCommit runs b.N connect+disconnect pairs from 1, 4
// and 16 goroutines, each on its own input and output port, against an
// in-process primary whose group commit waits for a standby's ack over
// loopback. It reports mutations/s, the standby's appends per fsync and
// the primary's semi-sync timeouts, which must stay 0: a timeout means
// a batch was acknowledged without the standby.
func BenchmarkReplicatedCommit(b *testing.B) {
	for _, conns := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			p := startPrimary(b, b.TempDir(), ServerConfig{Shard: 0})
			defer p.http.Close()
			defer p.ctl.Close()
			defer p.srv.Close()
			sb, err := NewStandby(StandbyConfig{
				Shard:     0,
				Primary:   p.ln.Addr().String(),
				DataDir:   b.TempDir(),
				Serving:   standbyServing(),
				Reconnect: 20 * time.Millisecond,
				Logger:    quietLogger(),
			})
			if err != nil {
				b.Fatalf("NewStandby: %v", err)
			}
			sb.Start()
			defer sb.Close()
			waitFor(b, 5*time.Second, "standby to connect", func() bool { return p.srv.Standbys() == 1 })

			n := testParams().N
			sessions := make([]wdm.Connection, conns)
			for g := range sessions {
				c, err := wdm.ParseConnection(fmt.Sprintf("%d.0>%d.0", g, (g+n/2)%n))
				if err != nil {
					b.Fatal(err)
				}
				sessions[g] = c
			}
			sb.mu.Lock()
			standbyWAL := sb.plane
			sb.mu.Unlock()
			before := standbyWAL.Stats()
			ctx := context.Background()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for _, c := range sessions {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						id, _, err := p.ctl.Connect(ctx, c, -1)
						if err == nil {
							err = p.ctl.Disconnect(ctx, id)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			after := standbyWAL.Stats()
			b.ReportMetric(2*float64(b.N)/b.Elapsed().Seconds(), "mutations/s")
			b.ReportMetric(float64(after.Appends-before.Appends)/float64(after.Syncs-before.Syncs), "standby-appends/fsync")
			b.ReportMetric(float64(p.srv.SyncTimeouts()), "sync-timeouts")
		})
	}
}
