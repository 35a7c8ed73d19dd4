package report

import (
	"bytes"
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
	}
	t.Add("alpha", F(0.12345))
	t.Add("a-much-longer-name", "0.68")
	return t
}

func TestRender(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "0.123") || !strings.Contains(out, "0.68") {
		t.Fatalf("render output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("line count: %d\n%s", len(lines), out)
	}
	// Column alignment: the value column starts at the same offset on all
	// data lines.
	h := strings.Index(lines[1], "value")
	if h < 0 {
		t.Fatal("no value header")
	}
	if lines[3][h-2:h] != "  " && lines[4][h-2:h] != "  " {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if F(1.0/3) != "0.333" {
		t.Fatalf("F: %q", F(1.0/3))
	}
}
