package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// WriteText renders the registry in the Prometheus text exposition
// format (version 0.0.4): one `# HELP` / `# TYPE` pair per family, then
// one sample line per instance. Histograms render cumulative
// `_bucket{le=...}` lines (trailing all-zero buckets are elided — the
// cumulative counts stay correct and the output stays readable), plus
// `_sum` and `_count`.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// snapshotFamilies keeps the registry lock out of this loop: the
	// FuncGauge callbacks evaluated here may register metrics themselves.
	for _, fam := range r.snapshotFamilies() {
		bw.WriteString("# HELP ")
		bw.WriteString(fam.name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(fam.help))
		bw.WriteString("\n# TYPE ")
		bw.WriteString(fam.name)
		bw.WriteByte(' ')
		bw.WriteString(fam.kind.promType())
		bw.WriteByte('\n')
		for _, e := range fam.entries {
			switch e.kind {
			case kindCounter:
				writeSample(bw, e.name, e.labels, "", formatUint(e.c.Load()))
			case kindFuncGauge, kindFuncCounter:
				writeSample(bw, e.name, e.labels, "", formatFloat(e.f.Load()))
			case kindHistogram:
				writeHistogram(bw, e)
			}
		}
	}
	return bw.Flush()
}

func writeHistogram(bw *bufio.Writer, e *entry) {
	s := e.h.Snapshot()
	scale := e.h.scale
	// Find the last non-empty bucket so the rendering stops there; the
	// +Inf bucket always closes the series.
	last := -1
	for i, c := range s.Counts {
		if c != 0 {
			last = i
		}
	}
	var cum uint64
	for i := 0; i <= last && i < NumBuckets-1; i++ {
		cum += s.Counts[i]
		_, hi := bucketBounds(i)
		writeSample(bw, e.name+"_bucket", e.labels, `le="`+formatFloat(hi*scale)+`"`, formatUint(cum))
	}
	writeSample(bw, e.name+"_bucket", e.labels, `le="+Inf"`, formatUint(s.Count))
	writeSample(bw, e.name+"_sum", e.labels, "", formatFloat(float64(s.Sum)*scale))
	writeSample(bw, e.name+"_count", e.labels, "", formatUint(s.Count))
}

// writeSample emits one `name{labels,extra} value` line.
func writeSample(bw *bufio.Writer, name string, labels []Label, extra, value string) {
	bw.WriteString(name)
	if len(labels) > 0 || extra != "" {
		bw.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(l.Name)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(l.Value))
			bw.WriteByte('"')
		}
		if extra != "" {
			if len(labels) > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(extra)
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline only (quotes
// are legal there).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
