package core

import (
	"math"
	"strconv"
	"time"

	"gqosm/internal/gram"
	"gqosm/internal/resource"
	"gqosm/internal/sla"
)

// The activity-log lines the broker writes on every session. Each is
// appended into the caller's stack buffer and handed to logLine as one
// string; the cold sites print through logf. Each renderer's comment
// quotes the fmt format it reads as, byte for byte.

// appendRequestLine: "client %q requests %q class=%s spec floor %v".
func appendRequestLine(buf []byte, client, service string, class sla.Class, floor resource.Capacity) []byte {
	buf = append(buf, "client "...)
	buf = strconv.AppendQuote(buf, client)
	buf = append(buf, " requests "...)
	buf = strconv.AppendQuote(buf, service)
	buf = append(buf, " class="...)
	buf = append(buf, class.String()...)
	buf = append(buf, " spec floor "...)
	return floor.AppendText(buf)
}

// appendOfferLine: "proposed %v at price %.2f (expires %s)", the expiry
// as Format("15:04:05").
func appendOfferLine(buf []byte, granted resource.Capacity, price float64, expires time.Time) []byte {
	buf = append(buf, "proposed "...)
	buf = granted.AppendText(buf)
	buf = append(buf, " at price "...)
	buf = strconv.AppendFloat(buf, price, 'f', 2, 64)
	buf = append(buf, " (expires "...)
	buf = expires.AppendFormat(buf, "15:04:05")
	return append(buf, ')')
}

// appendChargeLine: "established; resources committed; charged %.2f".
func appendChargeLine(buf []byte, price float64) []byte {
	buf = append(buf, "established; resources committed; charged "...)
	return strconv.AppendFloat(buf, price, 'f', 2, 64)
}

// appendGrantLine: "granted %v to %q".
func appendGrantLine(buf []byte, amount resource.Capacity, client string) []byte {
	buf = append(buf, "granted "...)
	buf = amount.AppendText(buf)
	buf = append(buf, " to "...)
	return strconv.AppendQuote(buf, client)
}

// appendReleaseLine: "released all capacity of %q".
func appendReleaseLine(buf []byte, client string) []byte {
	return strconv.AppendQuote(append(buf, "released all capacity of "...), client)
}

// appendInvokeLine: "service %q launched as %s (pid %d), reservation claimed".
func appendInvokeLine(buf []byte, service string, job gram.JobID, pid int) []byte {
	buf = append(buf, "service "...)
	buf = strconv.AppendQuote(buf, service)
	buf = append(buf, " launched as "...)
	buf = append(buf, job...)
	buf = append(buf, " (pid "...)
	buf = strconv.AppendInt(buf, int64(pid), 10)
	return append(buf, "), reservation claimed"...)
}

// appendClearingLine: "%s: %s".
func appendClearingLine(buf []byte, final sla.State, reason string) []byte {
	buf = append(buf, final.String()...)
	buf = append(buf, ": "...)
	return append(buf, reason...)
}

// moveLine is the activity-log line of a made move (reallocate), one per
// kind of move that writes one; an optimizer apply writes none.
type moveLine uint8

const (
	noLine           moveLine = iota
	degradedLine              // "degraded to floor %[2]v (scenario 1 compensation)"
	restoredLine              // "restored to %[2]v (scenario 2a)"
	alternativeLine           // "switched to alternative QoS %[2]v (scenario 3b)"
	promotedLine              // "accepted: upgraded to %[2]v for %.2[3]f"
	renegotiatedLine          // "QoS renegotiated %[1]v -> %[2]v (price %+.2[3]f)"
)

// kind is the line's activity-log event kind.
func (l moveLine) kind() string {
	switch l {
	case promotedLine:
		return "promotion"
	case renegotiatedLine:
		return "renegotiate"
	}
	return "adapt"
}

// appendTo appends the line of a move from old to applied that added
// billed to the price; the comments on the constants are its formats
// over (old, applied, billed).
func (l moveLine) appendTo(buf []byte, old, applied resource.Capacity, billed float64) []byte {
	switch l {
	case degradedLine:
		buf = applied.AppendText(append(buf, "degraded to floor "...))
		return append(buf, " (scenario 1 compensation)"...)
	case restoredLine:
		buf = applied.AppendText(append(buf, "restored to "...))
		return append(buf, " (scenario 2a)"...)
	case alternativeLine:
		buf = applied.AppendText(append(buf, "switched to alternative QoS "...))
		return append(buf, " (scenario 3b)"...)
	case promotedLine:
		buf = applied.AppendText(append(buf, "accepted: upgraded to "...))
		return strconv.AppendFloat(append(buf, " for "...), billed, 'f', 2, 64)
	case renegotiatedLine:
		buf = old.AppendText(append(buf, "QoS renegotiated "...))
		buf = applied.AppendText(append(buf, " -> "...))
		buf = appendSigned(append(buf, " (price "...), billed)
		return append(buf, ')')
	}
	return buf
}

// appendSigned appends v as fmt's %+.2f: always a sign, so a plus before
// a number, a NaN and +Inf (whose strconv text already has one).
func appendSigned(buf []byte, v float64) []byte {
	if math.Signbit(v) && !math.IsNaN(v) || math.IsInf(v, 1) {
		return strconv.AppendFloat(buf, v, 'f', 2, 64)
	}
	return strconv.AppendFloat(append(buf, '+'), v, 'f', 2, 64)
}
