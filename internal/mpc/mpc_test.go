package mpc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Machines: 0, MemoryWords: 10},
		{Machines: 2, MemoryWords: 0},
		{Machines: 2, MemoryWords: 10, PairWords: -1},
		{Machines: 2, MemoryWords: 10, Parallelism: -1},
	}
	for _, cfg := range bad {
		if _, err := NewCluster(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if _, err := NewCluster(Config{Machines: 1, MemoryWords: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageDelivery(t *testing.T) {
	c := newTestCluster(t, Config{Machines: 3, MemoryWords: 100})
	// Round 1: everyone sends its id to machine 0.
	err := c.Round(func(m *Machine) error {
		return m.Send(0, []uint64{uint64(m.ID()) + 10})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round 2: machine 0 checks its inbox (ordered by sender).
	err = c.Round(func(m *Machine) error {
		if m.ID() != 0 {
			if len(m.Inbox()) != 0 {
				t.Errorf("machine %d has unexpected inbox", m.ID())
			}
			return nil
		}
		in := m.Inbox()
		if len(in) != 3 {
			t.Errorf("machine 0 inbox size %d", len(in))
			return nil
		}
		for i, msg := range in {
			if msg.From != i || msg.Data[0] != uint64(i)+10 {
				t.Errorf("inbox[%d] = from %d data %v", i, msg.From, msg.Data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Rounds; got != 2 {
		t.Fatalf("rounds %d, want 2", got)
	}
}

func TestSendBudgetEnforced(t *testing.T) {
	c := newTestCluster(t, Config{Machines: 2, MemoryWords: 4})
	err := c.Round(func(m *Machine) error {
		if m.ID() == 0 {
			return m.Send(1, make([]uint64, 5))
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "sent") {
		t.Fatalf("oversend not rejected: %v", err)
	}
}

func TestReceiveBudgetEnforced(t *testing.T) {
	c := newTestCluster(t, Config{Machines: 5, MemoryWords: 4})
	// Four machines each send 2 words to machine 0: 8 > 4.
	err := c.Round(func(m *Machine) error {
		if m.ID() != 0 {
			return m.Send(0, make([]uint64, 2))
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "received") {
		t.Fatalf("overreceive not rejected: %v", err)
	}
}

func TestInvalidDestination(t *testing.T) {
	c := newTestCluster(t, Config{Machines: 2, MemoryWords: 10})
	err := c.Round(func(m *Machine) error {
		return m.Send(7, []uint64{1})
	})
	if err == nil {
		t.Fatal("invalid destination accepted")
	}
}

func TestCongestedCliquePairCap(t *testing.T) {
	c := newTestCluster(t, Config{Machines: 2, MemoryWords: 100, PairWords: 1})
	// Two one-word messages on the same ordered pair exceed the cap.
	err := c.Round(func(m *Machine) error {
		if m.ID() == 0 {
			if err := m.Send(1, []uint64{1}); err != nil {
				return err
			}
			return m.Send(1, []uint64{2})
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "congested clique") {
		t.Fatalf("pair cap not enforced: %v", err)
	}
	// One word per ordered pair is fine, both directions.
	c2 := newTestCluster(t, Config{Machines: 2, MemoryWords: 100, PairWords: 1})
	err = c2.Round(func(m *Machine) error {
		return m.Send(1-m.ID(), []uint64{uint64(m.ID())})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChargeAndRelease(t *testing.T) {
	c := newTestCluster(t, Config{Machines: 1, MemoryWords: 10})
	err := c.Round(func(m *Machine) error {
		if err := m.Charge(8); err != nil {
			return err
		}
		if m.Resident() != 8 {
			t.Errorf("resident %d, want 8", m.Resident())
		}
		return m.Charge(2) // 10, exactly at budget
	})
	if err != nil {
		t.Fatal(err)
	}
	if hw := c.Metrics().MaxResidentWords; hw != 10 {
		t.Fatalf("high water %d, want 10", hw)
	}
	err = c.Round(func(m *Machine) error { return m.Charge(1) })
	if err == nil {
		t.Fatal("memory budget not enforced")
	}
}

func TestParallelExecution(t *testing.T) {
	const machines = 32
	c := newTestCluster(t, Config{Machines: machines, MemoryWords: 1000, Parallelism: 8})
	var running, peak int64
	err := c.Round(func(m *Machine) error {
		cur := atomic.AddInt64(&running, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
				break
			}
		}
		// Busy-wait a moment so overlap is observable.
		for i := 0; i < 10000; i++ {
			_ = i * i
		}
		atomic.AddInt64(&running, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 8 {
		t.Fatalf("parallelism bound violated: peak %d > 8", peak)
	}
}

func TestMetricsAccumulate(t *testing.T) {
	c := newTestCluster(t, Config{Machines: 3, MemoryWords: 100})
	for r := 0; r < 4; r++ {
		err := c.Round(func(m *Machine) error {
			return m.Send((m.ID()+1)%3, []uint64{1, 2})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	got := c.Metrics()
	if got.Rounds != 4 {
		t.Fatalf("rounds %d", got.Rounds)
	}
	if got.TotalMessages != 12 {
		t.Fatalf("messages %d, want 12", got.TotalMessages)
	}
	if got.TotalWords != 24 {
		t.Fatalf("words %d, want 24", got.TotalWords)
	}
	if got.MaxSentWords != 2 || got.MaxRecvWords != 2 {
		t.Fatalf("per-round maxima %d/%d, want 2/2", got.MaxSentWords, got.MaxRecvWords)
	}
}

func TestAccountRounds(t *testing.T) {
	c := newTestCluster(t, Config{Machines: 1, MemoryWords: 1})
	c.AccountRounds(3)
	if c.Metrics().Rounds != 3 {
		t.Fatalf("rounds %d, want 3", c.Metrics().Rounds)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative AccountRounds did not panic")
		}
	}()
	c.AccountRounds(-1)
}

func TestResetResident(t *testing.T) {
	c := newTestCluster(t, Config{Machines: 2, MemoryWords: 10})
	_ = c.Round(func(m *Machine) error { return m.Charge(5) })
	c.ResetResident()
	_ = c.Round(func(m *Machine) error {
		if m.Resident() != 0 {
			t.Errorf("machine %d resident %d after reset", m.ID(), m.Resident())
		}
		return nil
	})
}

func TestStepErrorsCombined(t *testing.T) {
	c := newTestCluster(t, Config{Machines: 4, MemoryWords: 10})
	err := c.Round(func(m *Machine) error {
		if m.ID()%2 == 1 {
			return &machineErr{m.ID()}
		}
		return nil
	})
	if err == nil {
		t.Fatal("step errors swallowed")
	}
	if !strings.Contains(err.Error(), "machine 1") || !strings.Contains(err.Error(), "machine 3") {
		t.Fatalf("combined error missing parts: %v", err)
	}
}

type machineErr struct{ id int }

func (e *machineErr) Error() string { return "machine " + string(rune('0'+e.id)) + " failed" }

// TestStepGoexitFailsRoundAndKeepsPoolAlive pins the abnormal-exit
// contract: a step that never returns (runtime.Goexit — what
// testing.T.Fatalf does inside a step) must fail the round rather than
// route its partial messages as a success, and must not shrink the worker
// pool — with Parallelism 1 a lost worker would deadlock every later
// Round.
func TestStepGoexitFailsRoundAndKeepsPoolAlive(t *testing.T) {
	c := newTestCluster(t, Config{Machines: 2, MemoryWords: 100, Parallelism: 1})
	defer c.Close()
	err := c.Round(func(m *Machine) error {
		if m.ID() == 1 {
			if sendErr := m.Send(0, []uint64{7}); sendErr != nil {
				return sendErr
			}
			runtime.Goexit()
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("Goexit step not reported as aborted: %v", err)
	}
	// The pool survived: later rounds execute, and the aborted round's
	// staged message was dropped.
	if err := c.Round(func(m *Machine) error { return nil }); err != nil {
		t.Fatalf("round after Goexit: %v", err)
	}
	err = c.Round(func(m *Machine) error {
		if n := len(m.Inbox()); n != 0 {
			t.Errorf("machine %d received %d messages from the aborted round", m.ID(), n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFailedRoundDropsStagedMessages is the regression test for the
// stale-envelope bug: a round that errors after staging sends must not leave
// those messages behind — the next round's inboxes reflect only the next
// round's traffic. Exercised for every error path: step error, send-budget,
// receive-budget and congested-clique pair-cap violations.
func TestFailedRoundDropsStagedMessages(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		step StepFunc // the failing round; stages messages then errors
	}{
		{
			name: "step error",
			cfg:  Config{Machines: 3, MemoryWords: 100},
			step: func(m *Machine) error {
				if err := m.Send(0, []uint64{uint64(m.ID()) + 10}); err != nil {
					return err
				}
				if m.ID() == 2 {
					return &machineErr{m.ID()}
				}
				return nil
			},
		},
		{
			name: "send budget",
			cfg:  Config{Machines: 3, MemoryWords: 4},
			step: func(m *Machine) error {
				if m.ID() == 2 {
					return m.Send(0, make([]uint64, 5)) // 5 > 4: route rejects
				}
				return m.Send(0, []uint64{uint64(m.ID()) + 10})
			},
		},
		{
			name: "receive budget",
			cfg:  Config{Machines: 3, MemoryWords: 4},
			step: func(m *Machine) error {
				if m.ID() != 0 {
					return m.Send(0, make([]uint64, 3)) // 6 > 4 at machine 0
				}
				return nil
			},
		},
		{
			name: "pair cap",
			cfg:  Config{Machines: 3, MemoryWords: 100, PairWords: 1},
			step: func(m *Machine) error {
				if m.ID() == 2 {
					if err := m.Send(0, []uint64{1}); err != nil {
						return err
					}
					return m.Send(0, []uint64{2}) // 2 words on pair (2→0), cap 1
				}
				return m.Send(0, []uint64{uint64(m.ID()) + 10})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, tc.cfg)
			defer c.Close()
			if err := c.Round(tc.step); err == nil {
				t.Fatal("failing round reported no error")
			}
			// Recovery round: nobody sends. Before the fix, the messages
			// staged into the aborted round's out-arenas were still routed
			// here and delivered in the round after. The inbox must already
			// be empty in this round too: a mid-pass route() failure had
			// resized some inbox views for counts it never delivered, so a
			// step here would otherwise read unfilled (nil-Data) messages.
			err := c.Round(func(m *Machine) error {
				if n := len(m.Inbox()); n != 0 {
					t.Errorf("machine %d inbox not cleared by failed round: %d messages", m.ID(), n)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("recovery round: %v", err)
			}
			err = c.Round(func(m *Machine) error {
				if n := len(m.Inbox()); n != 0 {
					t.Errorf("machine %d inbox has %d stale messages: %v", m.ID(), n, m.Inbox())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("inspection round: %v", err)
			}
			// The cluster stays usable: fresh traffic routes normally.
			if err := c.Round(func(m *Machine) error { return m.Send(0, []uint64{uint64(m.ID()) + 100}) }); err != nil {
				t.Fatalf("post-recovery send round: %v", err)
			}
			err = c.Round(func(m *Machine) error {
				if m.ID() != 0 {
					return nil
				}
				in := m.Inbox()
				if len(in) != c.Machines() {
					t.Errorf("inbox size %d, want %d", len(in), c.Machines())
					return nil
				}
				for i, msg := range in {
					if msg.From != i || msg.Data[0] != uint64(i)+100 {
						t.Errorf("inbox[%d] = from %d data %v", i, msg.From, msg.Data)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("post-recovery inspection round: %v", err)
			}
		})
	}
}

func TestDeterministicInboxOrder(t *testing.T) {
	// Many senders to one receiver: inbox must be ordered by sender id and,
	// within a sender, by send order — independent of goroutine scheduling.
	for trial := 0; trial < 5; trial++ {
		c := newTestCluster(t, Config{Machines: 16, MemoryWords: 1000})
		err := c.Round(func(m *Machine) error {
			if err := m.Send(0, []uint64{uint64(m.ID()), 0}); err != nil {
				return err
			}
			return m.Send(0, []uint64{uint64(m.ID()), 1})
		})
		if err != nil {
			t.Fatal(err)
		}
		err = c.Round(func(m *Machine) error {
			if m.ID() != 0 {
				return nil
			}
			in := m.Inbox()
			if len(in) != 32 {
				t.Errorf("inbox size %d", len(in))
				return nil
			}
			for i, msg := range in {
				wantFrom := i / 2
				wantSeq := uint64(i % 2)
				if msg.From != wantFrom || msg.Data[1] != wantSeq {
					t.Errorf("trial %d: inbox[%d] from %d seq %d, want %d/%d",
						trial, i, msg.From, msg.Data[1], wantFrom, wantSeq)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	c := newTestCluster(t, Config{Machines: 2, MemoryWords: 10})
	if err := c.Round(func(m *Machine) error { return nil }); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // second Close must be a no-op
}

// TestRoundSteadyStateZeroAllocs pins the message plane's allocation budget:
// after warm-up on a fixed workload, a full Round — step execution, budget
// enforcement, counting-sort routing, inbox assembly — performs zero heap
// allocations. Arenas, envelope tables and routing scratch must all recycle.
func TestRoundSteadyStateZeroAllocs(t *testing.T) {
	const machines = 8
	c := newTestCluster(t, Config{Machines: machines, MemoryWords: 4096, Parallelism: 4})
	defer c.Close()
	// Fixed workload: every machine sends two multi-word payloads.
	payloads := make([][]uint64, machines)
	for i := range payloads {
		payloads[i] = make([]uint64, 16+i)
		for k := range payloads[i] {
			payloads[i][k] = uint64(i*100 + k)
		}
	}
	step := StepFunc(func(m *Machine) error {
		if err := m.Send((m.ID()+1)%machines, payloads[m.ID()]); err != nil {
			return err
		}
		return m.Send((m.ID()+3)%machines, payloads[m.ID()])
	})
	for i := 0; i < 5; i++ { // warm-up: grow arenas to steady state
		if err := c.Round(step); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := c.Round(step); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Round allocates %v times per round, want 0", avg)
	}
}

// TestInboxMatchesReferenceDeliveryOrder replays a pseudo-random traffic
// matrix against an in-test reference model of the pre-arena delivery
// semantics (append per destination in sender-id order, then a stable sort
// by sender — i.e. (sender, send-order)) and asserts the inbox contents are
// byte-identical, message by message.
func TestInboxMatchesReferenceDeliveryOrder(t *testing.T) {
	const machines = 13
	rng := rand.New(rand.NewSource(42))
	c := newTestCluster(t, Config{Machines: machines, MemoryWords: 1 << 16})
	defer c.Close()
	for round := 0; round < 6; round++ {
		// Script this round's sends: traffic[sender] is a list of (to, data).
		type send struct {
			to   int
			data []uint64
		}
		traffic := make([][]send, machines)
		for s := 0; s < machines; s++ {
			for k := rng.Intn(8); k > 0; k-- {
				data := make([]uint64, 1+rng.Intn(5))
				for i := range data {
					data[i] = rng.Uint64()
				}
				traffic[s] = append(traffic[s], send{to: rng.Intn(machines), data: data})
			}
		}
		// Reference inboxes: gather in sender-id order, stable-sort by From
		// (the exact delivery rule of the pre-arena route implementation).
		ref := make([][]Message, machines)
		for s := 0; s < machines; s++ {
			for _, sd := range traffic[s] {
				ref[sd.to] = append(ref[sd.to], Message{From: s, To: sd.to, Data: sd.data})
			}
		}
		for d := range ref {
			sort.SliceStable(ref[d], func(a, b int) bool { return ref[d][a].From < ref[d][b].From })
		}
		err := c.Round(func(m *Machine) error {
			for _, sd := range traffic[m.ID()] {
				if err := m.Send(sd.to, sd.data); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		err = c.Round(func(m *Machine) error {
			in := m.Inbox()
			want := ref[m.ID()]
			if len(in) != len(want) {
				t.Errorf("round %d machine %d: %d messages, want %d", round, m.ID(), len(in), len(want))
				return nil
			}
			for i := range in {
				if in[i].From != want[i].From || in[i].To != want[i].To ||
					!bytes.Equal(wordBytes(in[i].Data), wordBytes(want[i].Data)) {
					t.Errorf("round %d machine %d message %d: got from=%d %v, want from=%d %v",
						round, m.ID(), i, in[i].From, in[i].Data, want[i].From, want[i].Data)
				}
			}
			// Absorb this round's deliveries so the next scripted round
			// starts from empty inboxes.
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func wordBytes(words []uint64) []byte {
	out := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return out
}

// TestSendCopiesPayload pins the arena-plane ownership contract: the caller
// may reuse its buffer immediately after Send.
func TestSendCopiesPayload(t *testing.T) {
	c := newTestCluster(t, Config{Machines: 2, MemoryWords: 100})
	defer c.Close()
	err := c.Round(func(m *Machine) error {
		if m.ID() != 0 {
			return nil
		}
		buf := []uint64{1, 2, 3}
		if err := m.Send(1, buf); err != nil {
			return err
		}
		buf[0], buf[1], buf[2] = 9, 9, 9 // must not affect the staged message
		return m.Send(1, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Round(func(m *Machine) error {
		if m.ID() != 1 {
			return nil
		}
		in := m.Inbox()
		if len(in) != 2 {
			t.Fatalf("inbox size %d, want 2", len(in))
		}
		if in[0].Data[0] != 1 || in[0].Data[2] != 3 {
			t.Errorf("first message mutated after send: %v", in[0].Data)
		}
		if in[1].Data[0] != 9 {
			t.Errorf("second message %v, want 9s", in[1].Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	buf := make([]uint64, 2*EdgeRecordWords)
	SetEdgeRecord(buf, 0, 5, 9, 3.25)
	SetEdgeRecord(buf, 1, -1, 2, -0.5)
	n, err := CheckRecordCount(buf, EdgeRecordWords)
	if err != nil || n != 2 {
		t.Fatalf("record count %d err %v", n, err)
	}
	u, v, w := DecodeEdgeRecord(buf, 0)
	if u != 5 || v != 9 || w != 3.25 {
		t.Fatalf("decoded (%d,%d,%v)", u, v, w)
	}
	u, v, w = DecodeEdgeRecord(buf, 1)
	if u != -1 || v != 2 || w != -0.5 {
		t.Fatalf("decoded (%d,%d,%v)", u, v, w)
	}

	vb := make([]uint64, VertexRecordWords)
	SetVertexRecord(vb, 0, 7, 1.5)
	id, val := DecodeVertexRecord(vb, 0)
	if id != 7 || val != 1.5 {
		t.Fatalf("vertex record (%d,%v)", id, val)
	}

	rb := make([]uint64, ResultRecordWords)
	SetResultRecord(rb, 0, 3, -1)
	rv, fi := DecodeResultRecord(rb, 0)
	if rv != 3 || fi != -1 {
		t.Fatalf("result record (%d,%d)", rv, fi)
	}

	if _, err := CheckRecordCount(make([]uint64, 4), EdgeRecordWords); err == nil {
		t.Fatal("ragged payload accepted")
	}
}

func TestFloatWordRoundTrip(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 3.141592653589793, 1e-300, 1e300} {
		if GetFloat(PutFloat(f)) != f {
			t.Fatalf("float round trip failed for %v", f)
		}
	}
}
