package data_test

import (
	"path/filepath"
	"testing"

	"repro/internal/data"
	"repro/internal/synth"
)

// ioBenchInputs are the dataset files a cold start reads: crowd_batch's
// BirthPlaces with a campaign's worth of crowd answers, and
// ingest_publish's BirthPlaces at twice the paper's size.
func ioBenchInputs() []struct {
	name string
	ds   *data.Dataset
} {
	return []struct {
		name string
		ds   *data.Dataset
	}{
		{"BirthPlacesX1+3750answers", withAnswers(synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 1, Scale: 1}), 3750, 10, 1)},
		{"BirthPlacesX2", synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 1, Scale: 2})},
	}
}

// BenchmarkLoadFile times one LoadFile: read the file and decode it into a
// Dataset with its hierarchy rebuilt.
func BenchmarkLoadFile(b *testing.B) {
	for _, c := range ioBenchInputs() {
		b.Run(c.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "dataset.json")
			if err := data.SaveFile(path, c.ds); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := data.LoadFile(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSaveFile times one SaveFile, the fsync included.
func BenchmarkSaveFile(b *testing.B) {
	for _, c := range ioBenchInputs() {
		b.Run(c.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "dataset.json")
			b.ReportAllocs()
			for b.Loop() {
				if err := data.SaveFile(path, c.ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
