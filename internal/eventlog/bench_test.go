package eventlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/data"
)

// BenchmarkAppendParallel measures concurrent durable appends to one log —
// the per-campaign ingest bottleneck. Group commit batches every append
// that arrives during the previous fsync into the next one, so throughput
// scales with concurrency instead of being capped at one answer per fsync.
func BenchmarkAppendParallel(b *testing.B) {
	l, err := Open(filepath.Join(b.TempDir(), "bench.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	var seq atomic.Int64
	// Appenders are blocked on fsync, not on a core: model many concurrent
	// worker connections even on small GOMAXPROCS.
	b.SetParallelism(16)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			if err := l.Append(data.Answer{Object: fmt.Sprintf("o%d", i), Worker: "w", Value: "v"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReplay times one in-memory replay of 7,500 plain answer lines
// (1,500 objects, five answers each) into an empty dataset: the per-line
// decode, validation and dedup a campaign boot pays.
func BenchmarkReplay(b *testing.B) {
	var log bytes.Buffer
	for i := 0; i < 7500; i++ {
		line, err := json.Marshal(AnswerEvent(data.Answer{
			Object: fmt.Sprintf("bp:person-%d", i/5),
			Worker: fmt.Sprintf("worker-%d", i%256),
			Value:  fmt.Sprintf("bp:city-%d.%d", i%40, i%7),
		}))
		if err != nil {
			b.Fatal(err)
		}
		log.Write(line)
		log.WriteByte('\n')
	}
	b.ReportAllocs()
	for b.Loop() {
		res, err := ReplayFrom(bytes.NewReader(log.Bytes()), &data.Dataset{})
		if err != nil || res.Answers != 7500 {
			b.Fatalf("replay = %+v, %v", res, err)
		}
	}
}
