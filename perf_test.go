// Simulator-throughput benchmark and the host-stats test.
// BenchmarkCoreThroughput reports simulated millions of instructions per
// host second, per protection scheme. CI's perf-smoke job runs it with
// -benchtime=1x against generous floors; meaningful measurements need the
// default benchtime on an idle machine. The repository's benchmark is
// bench/run.sh (bench/README.md).
package spt_test

import (
	"testing"

	"spt"
)

// BenchmarkCoreThroughput measures raw simulation speed for the three
// schemes spanning the simulator's cost range (no policy, STT's transitive
// untaint, full SPT with its bounded untaint broadcast). Reported metrics:
// simulated MIPS and host nanoseconds per simulated instruction.
func BenchmarkCoreThroughput(b *testing.B) {
	for _, scheme := range []spt.Scheme{spt.UnsafeBaseline, spt.STT, spt.SPTFull} {
		b.Run(string(scheme), func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				res, err := spt.Run("gcc", spt.Options{
					Scheme: scheme, Model: spt.Futuristic, MaxInstructions: 100_000,
				})
				if err != nil {
					b.Fatal(err)
				}
				insts += res.Instructions
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 && insts > 0 {
				b.ReportMetric(float64(insts)/sec/1e6, "sim-MIPS")
				b.ReportMetric(sec*1e9/float64(insts), "ns/sim-inst")
			}
		})
	}
}

// TestHostStatsPopulated checks that every run reports host-side
// throughput, and that the host fields never leak into StatsText (which
// golden fixtures compare byte-for-byte).
func TestHostStatsPopulated(t *testing.T) {
	res, err := spt.Run("xz", spt.Options{MaxInstructions: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Host.Seconds <= 0 || res.Host.SimKIPS <= 0 || res.Host.NsPerInstruction <= 0 {
		t.Fatalf("host stats not populated: %+v", res.Host)
	}
	if res.Host.CPUSeconds < res.Host.Seconds {
		t.Fatalf("CPUSeconds %.6f below wall Seconds %.6f for a serial run", res.Host.CPUSeconds, res.Host.Seconds)
	}
	for _, field := range []string{"host", "KIPS", "ns/inst"} {
		if containsFold(res.StatsText(), field) {
			t.Fatalf("StatsText leaks host-dependent field %q", field)
		}
	}
}

func containsFold(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		match := true
		for j := 0; j < len(sub); j++ {
			a, b := s[i+j], sub[j]
			if 'A' <= a && a <= 'Z' {
				a += 'a' - 'A'
			}
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			if a != b {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
