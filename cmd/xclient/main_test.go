package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/transport"
)

func startBroker(t *testing.T) (*transport.Server, string) {
	t.Helper()
	srv := transport.NewServer(broker.Config{ID: "b1", UseCovering: true}, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

// TestSubscribePublishEndToEnd drives the real CLI surface against an
// in-process broker: one invocation subscribes and waits, a second publishes
// a document file's bytes, and the subscriber must print the delivered
// document.
func TestSubscribePublishEndToEnd(t *testing.T) {
	srv, addr := startBroker(t)

	file := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(file, []byte("<a><b>hello</b><c/></a>"), 0o644); err != nil {
		t.Fatal(err)
	}

	var subOut bytes.Buffer
	subDone := make(chan error, 1)
	go func() {
		subDone <- run([]string{"-connect", addr, "-id", "sub1", "-subscribe", "/a//b", "-wait", "2s"}, &subOut)
	}()

	// The publish must not race the subscription registration.
	deadline := time.Now().Add(5 * time.Second)
	for srv.PRTSize() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never reached the broker")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var pubOut bytes.Buffer
	if err := run([]string{"-connect", addr, "-id", "pub1", "-publish", file}, &pubOut); err != nil {
		t.Fatalf("publish run: %v", err)
	}
	if !strings.Contains(pubOut.String(), "published "+file+" (23 bytes, 2 paths)") {
		t.Errorf("publish output:\n%s", pubOut.String())
	}

	if err := <-subDone; err != nil {
		t.Fatalf("subscribe run: %v", err)
	}
	got := subOut.String()
	if !strings.Contains(got, "subscribed to /a//b") {
		t.Errorf("missing subscribe acknowledgement:\n%s", got)
	}
	if !strings.Contains(got, "received document <a> (23 bytes, 2 paths)") {
		t.Errorf("subscriber printed no delivery:\n%s", got)
	}
}

// TestAdvertiseDTD advertises a built-in corpus.
func TestAdvertiseDTD(t *testing.T) {
	_, addr := startBroker(t)
	var out bytes.Buffer
	if err := run([]string{"-connect", addr, "-id", "pub1", "-advertise-dtd", "nitf"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "advertised ") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunRejectsBadInvocations(t *testing.T) {
	_, addr := startBroker(t)
	for _, args := range [][]string{
		{"-connect", addr}, // no action selected
		{"-connect", addr, "-subscribe", "not a [ valid"}, // bad XPE
		{"-connect", addr, "-publish", "no-such-file.xml"},
		{"-connect", addr, "-publish", "doc.xml", "-raw"}, // retired flag
		{"-bogus"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) succeeded, want error", args)
		}
	}
}

// TestTracedPublishPrintsPath drives a traced publication through a single
// broker and checks that both ends surface the trace: the publisher prints
// the trace ID, the subscriber prints the broker path.
func TestTracedPublishPrintsPath(t *testing.T) {
	srv, addr := startBroker(t)

	file := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(file, []byte("<a><b>hi</b></a>"), 0o644); err != nil {
		t.Fatal(err)
	}

	var subOut bytes.Buffer
	subDone := make(chan error, 1)
	go func() {
		subDone <- run([]string{"-connect", addr, "-id", "sub1", "-subscribe", "/a", "-wait", "2s"}, &subOut)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.PRTSize() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never reached the broker")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var pubOut bytes.Buffer
	if err := run([]string{"-connect", addr, "-id", "pub1", "-publish", file, "-trace"}, &pubOut); err != nil {
		t.Fatalf("publish run: %v", err)
	}
	if !strings.Contains(pubOut.String(), "trace=") {
		t.Errorf("publisher output missing trace ID:\n%s", pubOut.String())
	}
	if err := <-subDone; err != nil {
		t.Fatalf("subscribe run: %v", err)
	}
	if !strings.Contains(subOut.String(), "via b1") {
		t.Errorf("subscriber output missing hop path:\n%s", subOut.String())
	}
	// The traced delivery also prints the per-hop stage breakdown and the
	// in-broker versus end-to-end split.
	for _, want := range []string{"hop b1:", "match=", "in-broker", "end-to-end"} {
		if !strings.Contains(subOut.String(), want) {
			t.Errorf("subscriber output missing %q:\n%s", want, subOut.String())
		}
	}
}
