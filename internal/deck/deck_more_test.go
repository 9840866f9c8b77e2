package deck

import (
	"testing"

	"djstar/internal/audio"
)

func TestDeckPauseAndGetters(t *testing.T) {
	d := New("x", audio.SampleRate)
	tr := testTrack()
	d.Load(tr)
	if d.Track() != tr {
		t.Fatal("Track getter wrong")
	}
	d.Play()
	if !d.Playing() {
		t.Fatal("not playing")
	}
	d.Pause()
	if d.Playing() {
		t.Fatal("Pause did not stop playback")
	}
	// Position survives pause.
	d.Seek(123)
	d.Pause()
	if d.Position() != 123 {
		t.Fatalf("position after pause = %v", d.Position())
	}
	d.SetKeyLock(true)
	if !d.keyLock {
		t.Fatal("KeyLock getter wrong")
	}
	d.SetKeyLock(false)
	if d.keyLock {
		t.Fatal("KeyLock not cleared")
	}
}
