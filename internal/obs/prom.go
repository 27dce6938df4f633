package obs

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Prometheus text exposition (format 0.0.4) for the registry.
//
// Registry names are dotted and optionally scoped by a leading shard
// label ("shard1.ring.rounds"). The exposition maps them to stable
// Prometheus series:
//
//	ring.rounds                 -> accelring_ring_rounds
//	shard1.ring.rounds          -> accelring_ring_rounds{ring="1"}
//	transport.udp.tx_data_bytes -> accelring_transport_udp_tx_data_bytes
//	health.token_stall          -> accelring_health_token_stall
//
// so a sharded daemon's rings land in one metric family distinguished by
// the ring label, and every exported name matches
// ^accelring_[a-z0-9_]+$ (the naming lint in internal/daemon enforces
// this end to end).

// promName maps a dotted registry name to its Prometheus name and label
// set ("" or `ring="N"`).
func promName(name string) (metric, labels string) {
	if rest, ring, ok := splitShardScope(name); ok {
		name, labels = rest, `ring="`+ring+`"`
	}
	var b strings.Builder
	b.Grow(len("accelring_") + len(name))
	b.WriteString("accelring_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		default:
			b.WriteByte('_')
		}
	}
	return b.String(), labels
}

// splitShardScope recognizes a "shard<digits>." prefix and returns the
// unscoped remainder and the shard number.
func splitShardScope(name string) (rest, ring string, ok bool) {
	const p = "shard"
	if !strings.HasPrefix(name, p) {
		return "", "", false
	}
	tail := name[len(p):]
	dot := strings.IndexByte(tail, '.')
	if dot <= 0 || dot == len(tail)-1 {
		return "", "", false
	}
	for _, c := range tail[:dot] {
		if c < '0' || c > '9' {
			return "", "", false
		}
	}
	return tail[dot+1:], tail[:dot], true
}

type promRow struct {
	labels string
	value  string
	hist   *Histogram // non-nil for histogram rows
}

type promFamily struct {
	name string
	typ  string
	rows []promRow
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registry metric in the Prometheus text
// exposition format: counters and gauges as single samples, histograms
// with cumulative le-bucketed counts plus _sum and _count, published
// functions flattened to gauges where their values are numeric (numeric
// struct fields and map values become "<name>_<field>" gauges;
// non-numeric publications are skipped — /debug/vars still carries them).
// No-op on a nil registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	counters, gauges, hists, funcs := r.metrics()
	fams := make(map[string]*promFamily)
	add := func(name, typ string, row promRow) {
		f := fams[name]
		if f == nil {
			f = &promFamily{name: name, typ: typ}
			fams[name] = f
		}
		if f.typ != typ {
			// A published-function leaf collided with a structural
			// metric of another type; the structural metric wins.
			if typ == "gauge" {
				return
			}
			f.typ = typ
			f.rows = nil
		}
		f.rows = append(f.rows, row)
	}

	for k, c := range counters {
		name, labels := promName(k)
		add(name, "counter", promRow{labels: labels, value: strconv.FormatUint(c.Value(), 10)})
	}
	for k, g := range gauges {
		name, labels := promName(k)
		add(name, "gauge", promRow{labels: labels, value: strconv.FormatInt(g.Value(), 10)})
	}
	for k, h := range hists {
		name, labels := promName(k)
		add(name, "histogram", promRow{labels: labels, hist: h})
	}
	for k, fn := range funcs {
		flattenPublished(k, fn(), func(leaf string, v float64) {
			name, labels := promName(leaf)
			add(name, "gauge", promRow{labels: labels, value: promFloat(v)})
		})
	}
	{
		name, _ := promName("uptime_seconds")
		add(name, "gauge", promRow{value: promFloat(time.Since(r.start).Seconds())})
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		f := fams[name]
		sort.Slice(f.rows, func(i, j int) bool { return f.rows[i].labels < f.rows[j].labels })
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, row := range f.rows {
			if row.hist != nil {
				writePromHistogram(&b, f.name, row.labels, row.hist)
				continue
			}
			if row.labels == "" {
				fmt.Fprintf(&b, "%s %s\n", f.name, row.value)
			} else {
				fmt.Fprintf(&b, "%s{%s} %s\n", f.name, row.labels, row.value)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writePromHistogram renders one histogram with cumulative buckets. Every
// bound is emitted — including empty buckets, which HistogramSnapshot
// omits — because Prometheus quantile math needs the full ladder.
func writePromHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	join := func(le string) string {
		if labels == "" {
			return `le="` + le + `"`
		}
		return labels + `,le="` + le + `"`
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = promFloat(h.bounds[i])
		}
		fmt.Fprintf(b, "%s_bucket{%s} %d\n", name, join(le), cum)
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, suffix, promFloat(math.Float64frombits(h.sum.Load())))
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, h.count.Load())
}

// flattenPublished extracts numeric leaves from a published function's
// value: plain numbers emit under the publication name itself, structs
// and string-keyed maps emit one leaf per numeric field/entry as
// "<name>_<snake(field)>". One level of nesting only; anything else
// (slices, deeper nesting, strings) is skipped.
func flattenPublished(name string, v any, emit func(name string, v float64)) {
	if f, ok := asFloat(reflect.ValueOf(v)); ok {
		emit(name, f)
		return
	}
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer && !rv.IsNil() {
		rv = rv.Elem()
	}
	switch rv.Kind() {
	case reflect.Struct:
		t := rv.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			if f, ok := asFloat(rv.Field(i)); ok {
				emit(name+"_"+camelToSnake(t.Field(i).Name), f)
			}
		}
	case reflect.Map:
		if rv.Type().Key().Kind() != reflect.String {
			return
		}
		for _, k := range rv.MapKeys() {
			if f, ok := asFloat(rv.MapIndex(k)); ok {
				emit(name+"_"+camelToSnake(k.String()), f)
			}
		}
	}
}

func asFloat(rv reflect.Value) (float64, bool) {
	for rv.Kind() == reflect.Interface || rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return 0, false
		}
		rv = rv.Elem()
	}
	switch rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return float64(rv.Int()), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return float64(rv.Uint()), true
	case reflect.Float32, reflect.Float64:
		return rv.Float(), true
	}
	return 0, false
}

func camelToSnake(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	for i, r := range s {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			r = r - 'A' + 'a'
		}
		b.WriteRune(r)
	}
	return b.String()
}
