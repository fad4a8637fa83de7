package decomp_test

import (
	"bufio"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"hypertree/internal/decomp"
	"hypertree/internal/order"
)

func TestWriteParseTDRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		h := randomHypergraph(10, 7, 4, seed)
		o := order.Random(h.NumVertices(), rand.New(rand.NewSource(seed)))
		d := order.VertexElimination(h, o)

		var sb strings.Builder
		if err := d.WriteTD(&sb); err != nil {
			t.Fatal(err)
		}
		d2, err := decomp.ParseTD(strings.NewReader(sb.String()), h)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, sb.String())
		}
		if err := d2.ValidateTD(); err != nil {
			t.Fatalf("seed %d: re-parsed TD invalid: %v", seed, err)
		}
		if d2.Width() != d.Width() {
			t.Fatalf("seed %d: width changed %d -> %d", seed, d.Width(), d2.Width())
		}
		if d2.NumNodes() != d.NumNodes() {
			t.Fatalf("seed %d: node count changed", seed)
		}
	}
}

func TestParseTDErrors(t *testing.T) {
	h := example5()
	for _, in := range []string{
		"",                                  // no solution line
		"b 1 1\n",                           // bag before s
		"s td x 1 6\n",                      // bad count
		"s td 1 1 6\nb 2 1\n",               // bag id out of range
		"s td 1 1 6\nb 1 99\n",              // vertex out of range
		"s td 2 1 6\nb 1 1\n",               // bag 2 missing
		"s td 2 1 6\nb 1 1\nb 2 2\n1 2 3\n", // malformed edge
		"s td 2 1 6\nb 1 1\nb 2 2\n",        // disconnected bags
	} {
		if _, err := decomp.ParseTD(strings.NewReader(in), h); err == nil {
			t.Fatalf("ParseTD(%q) succeeded", in)
		}
	}
}

// ParseTD grows its line buffer to a 1 MiB cap: a line past bufio's 64 KiB
// default parses, and a line past 1 MiB fails with bufio.ErrTooLong.
func TestParseTDLineCap(t *testing.T) {
	h := example5()
	body := "s td 1 1 6\nb 1 1\n"
	if _, err := decomp.ParseTD(strings.NewReader("c "+strings.Repeat("x", 100<<10)+"\n"+body), h); err != nil {
		t.Errorf("a 100 KiB comment line: %v", err)
	}
	_, err := decomp.ParseTD(strings.NewReader("c "+strings.Repeat("x", 1<<20)+"\n"+body), h)
	if want := "td: " + bufio.ErrTooLong.Error(); !errors.Is(err, bufio.ErrTooLong) || err.Error() != want {
		t.Errorf("a line past 1 MiB: error %v, want %q", err, want)
	}
}

func TestWriteDOT(t *testing.T) {
	h := example5()
	d := paperTD(h)
	var sb strings.Builder
	if err := d.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "x1", "n0 -> n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTDHeaderFields(t *testing.T) {
	h := example5()
	d := paperTD(h)
	var sb strings.Builder
	if err := d.WriteTD(&sb); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(sb.String(), "\n", 2)[0]
	if first != "s td 4 3 6" {
		t.Fatalf("header = %q, want 's td 4 3 6'", first)
	}
}
