package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestServeLogsToItsWriter pins that the daemon's log lines go to the
// writer the subcommand was given, whole, from concurrent campaign
// goroutines (run it with -race), and that -quiet silences them.
func TestServeLogsToItsWriter(t *testing.T) {
	const goroutines, lines = 8, 50
	var buf bytes.Buffer
	f := newFlags("serve", &buf)
	opts := serveOptions(f)
	if err := f.Parse(nil); err != nil {
		t.Fatal(err)
	}
	logf := opts().Logf
	if logf == nil {
		t.Fatal("serve options log nowhere without -quiet")
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				logf("campaign c%03d: round %d", g, i)
			}
		}()
	}
	wg.Wait()
	got := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		got[l] = true
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < lines; i++ {
			if l := fmt.Sprintf("campaign c%03d: round %d", g, i); !got[l] {
				t.Fatalf("line %q missing from the captured log", l)
			}
		}
	}
	if len(got) != goroutines*lines {
		t.Fatalf("captured %d distinct lines, want %d", len(got), goroutines*lines)
	}

	quiet := newFlags("serve", &buf)
	opts = serveOptions(quiet)
	if err := quiet.Parse([]string{"-quiet"}); err != nil {
		t.Fatal(err)
	}
	if opts().Logf != nil {
		t.Fatal("serve -quiet still logs")
	}
}
