package repl

import (
	"testing"
	"time"

	"repro/internal/store"
)

// BenchmarkR1_FollowerCatchUp times what a replacement replica pays to
// reach the primary's head: an empty durable follower (SyncAlways, its
// own data dir) replaying 5 000 single-insert commits from the primary's
// log. fsyncs/frame is the batch ratio the follower's group sync buys —
// 1.0 means one fsync per frame, which is what a live trickle costs and
// what catch-up cost before batching.
func BenchmarkR1_FollowerCatchUp(b *testing.B) {
	const frames = 5000
	_, addr := burstPrimary(b, frames)

	var fsyncs uint64
	b.ResetTimer()
	b.StopTimer() // only the catch-up itself is timed
	for i := 0; i < b.N; i++ {
		fstore := openDurable(b, b.TempDir(), store.SyncAlways, nil)
		fstore.SetReplica(true)
		f := NewFollower(fstore, addr, FollowerOptions{})

		b.StartTimer()
		f.Start()
		if err := f.WaitForSeq(frames, time.Minute); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()

		info, _ := fstore.WALInfo()
		fsyncs += info.Fsyncs
		f.Close()
		fstore.Close()
	}
	b.ReportMetric(float64(frames)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	b.ReportMetric(float64(fsyncs)/(float64(frames)*float64(b.N)), "fsyncs/frame")
}
