package audio

import "testing"

func benchStereo() Stereo {
	s := NewStereo(PacketSize)
	x := uint64(88172645463325252)
	for i := range s.L {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.L[i] = float64(int64(x>>11))/float64(1<<53) - 0.5
		s.R[i] = -s.L[i] * 0.7
	}
	return s
}

var benchSink float64

func BenchmarkStereoPeak(b *testing.B) {
	s := benchStereo()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = s.Peak()
	}
}

func BenchmarkStereoRMS(b *testing.B) {
	s := benchStereo()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = s.RMS()
	}
}

func BenchmarkAddFrom(b *testing.B) {
	s, d := benchStereo(), NewStereo(PacketSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.L.AddFrom(s.L, 0.25)
	}
	benchSink = d.L[0]
}
