// Package metrics is the one Prometheus text exposition path of the
// broker stack.  Each subsystem describes what it measures as a list of
// Families next to the Stats it reads and implements Collector; Write is
// the only code that knows the text format — # HELP and # TYPE lines,
// label quoting and escaping, integer versus float sample values.
//
// Stdlib only: no client library, no registry, no background state.  A
// scrape calls every attached Collector once and renders what it
// returns.
package metrics

import (
	"io"
	"strconv"
	"strings"
)

// ContentType is the media type of Write's output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Family is one metric family: a name, its help text, its Prometheus
// type ("counter", "gauge" or "summary") and its samples.  A family with
// no samples still renders its HELP and TYPE lines.
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// Counter returns a counter family.
func Counter(name, help string, samples ...Sample) Family {
	return Family{Name: name, Help: help, Type: "counter", Samples: samples}
}

// Gauge returns a gauge family.
func Gauge(name, help string, samples ...Sample) Family {
	return Family{Name: name, Help: help, Type: "gauge", Samples: samples}
}

// Sample is one line of a family.  Build it with Int, Float or Bool.
type Sample struct {
	// Suffix is appended to the family name on this line (a summary's
	// "_max" beside its quantiles); usually empty.
	Suffix string
	// Labels holds name, value pairs in output order.
	Labels []string

	i     int64
	f     float64
	float bool
}

// Int returns an integer-valued sample; labels are name, value pairs.
// v must fit in an int64.
func Int[T ~int | ~int64 | ~uint64](v T, labels ...string) Sample {
	return Sample{Labels: labels, i: int64(v)}
}

// Float returns a float-valued sample; labels are name, value pairs.
func Float(v float64, labels ...string) Sample {
	return Sample{Labels: labels, f: v, float: true}
}

// Bool returns 1 for true and 0 for false.
func Bool(v bool, labels ...string) Sample {
	if v {
		return Int(1, labels...)
	}
	return Int(0, labels...)
}

// Collector is anything that reports metric families at scrape time.
// A non-nil error is rendered as a comment after the families returned
// with it, so one failing source does not take the scrape down.
type Collector interface {
	Collect() ([]Family, error)
}

var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	lineEscaper  = strings.NewReplacer("\n", " ")
)

// Write renders every collector's families, in order, in the
// Prometheus text exposition format and writes them to w in one call.
func Write(w io.Writer, cs ...Collector) error {
	var b []byte
	for _, c := range cs {
		fams, err := c.Collect()
		for _, f := range fams {
			b = appendFamily(b, f)
		}
		if err != nil {
			b = append(b, "# "...)
			b = append(b, lineEscaper.Replace(err.Error())...)
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

func appendFamily(b []byte, f Family) []byte {
	b = append(b, "# HELP "...)
	b = append(b, f.Name...)
	b = append(b, ' ')
	b = append(b, helpEscaper.Replace(f.Help)...)
	b = append(b, "\n# TYPE "...)
	b = append(b, f.Name...)
	b = append(b, ' ')
	b = append(b, f.Type...)
	b = append(b, '\n')
	for _, s := range f.Samples {
		b = append(b, f.Name...)
		b = append(b, s.Suffix...)
		for i := 0; i+1 < len(s.Labels); i += 2 {
			if i == 0 {
				b = append(b, '{')
			} else {
				b = append(b, ',')
			}
			b = append(b, s.Labels[i]...)
			b = append(b, `="`...)
			b = append(b, labelEscaper.Replace(s.Labels[i+1])...)
			b = append(b, '"')
		}
		if len(s.Labels) >= 2 {
			b = append(b, '}')
		}
		b = append(b, ' ')
		if s.float {
			b = strconv.AppendFloat(b, s.f, 'g', -1, 64)
		} else {
			b = strconv.AppendInt(b, s.i, 10)
		}
		b = append(b, '\n')
	}
	return b
}
