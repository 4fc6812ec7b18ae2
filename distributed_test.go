package swex

// Distributed-sweep regression tests: the swexd coordinator/worker
// service must be invisible in experiment output. Every exhibit rendered
// through a coordinator and three workers must be byte-identical to the
// serial in-process run, and resubmitting against the coordinator's warm
// cache must execute zero simulations.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"swex/internal/sweep"
	"swex/internal/swexd"
)

// renderAll renders every registry exhibit in quick mode through the
// given job runner and returns the concatenated reports.
func renderAll(t *testing.T, runner JobRunner) string {
	t.Helper()
	var out string
	for _, m := range Matrices() {
		text, _, err := m.Render(Options{Quick: true, Sweep: runner})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		out += "== " + m.Name + "\n" + text + "\n"
	}
	return out
}

// TestDistributedExhibitsByteIdentical is the swexd acceptance check: a
// coordinator with three workers renders the full exhibit matrix
// byte-identically to a serial in-process run, and a warm resubmission
// completes entirely from the coordinator's cache with zero additional
// simulations.
func TestDistributedExhibitsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick matrix; skipped in -short")
	}
	serialRunner := sweep.MustNewRunner(sweep.Config{Workers: 1})
	defer serialRunner.Close()
	serial := renderAll(t, serialRunner)

	coord, err := swexd.NewCoordinator(swexd.Config{LeaseTerm: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := make([]chan error, 3)
	for i := range workers {
		w := swexd.NewWorker(swexd.WorkerConfig{
			Coordinator: srv.Listener.Addr().String(),
			Slots:       2,
			Poll:        10 * time.Millisecond,
		})
		done := make(chan error, 1)
		go func() { done <- w.Run(ctx) }()
		workers[i] = done
	}

	client := &swexd.Client{Base: srv.URL, Poll: 20 * time.Millisecond}
	distributed := renderAll(t, client)
	if distributed != serial {
		t.Errorf("distributed exhibits differ from serial:\n--- serial ---\n%s\n--- distributed ---\n%s",
			serial, distributed)
	}

	// Warm resubmission: every job is already in the coordinator's store,
	// so re-rendering the whole matrix executes nothing anywhere.
	vars, err := client.Vars(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	before := vars["executions"]
	warm := renderAll(t, client)
	if warm != serial {
		t.Error("warm distributed exhibits differ from serial")
	}
	vars, err = client.Vars(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vars["executions"] != before {
		t.Errorf("warm resubmission executed %d simulations; want 0", vars["executions"]-before)
	}

	cancel()
	for _, done := range workers {
		if err := <-done; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}
