// Package releasecheck_a is a releasecheck fixture: batch receivers that
// leak on some path are flagged; receivers that release, forward, or defer
// the release are clean.
package releasecheck_a

import "tram"

type update struct{ v int }

// batchMsg is the conventional carrier: its items field is assigned from
// Batch.Items at the send sites below, which is what marks it.
type batchMsg struct{ items []update }

type sender interface {
	Send(dst int, msg any, size int)
}

type state struct {
	tm *tram.Manager[update]
	pe sender
}

// produce marks batchMsg.items as a carrier field.
func (st *state) produce(b *tram.Batch[update]) {
	st.pe.Send(b.DestPE, batchMsg{items: b.Items}, len(b.Items))
}

func (st *state) deliverGood(msg any) {
	switch m := msg.(type) {
	case batchMsg:
		st.receiveGood(m.items)
	}
}

func (st *state) receiveGood(items []update) {
	for range items {
	}
	st.tm.Release(items)
}

func (st *state) deliverBad(msg any) {
	switch m := msg.(type) {
	case batchMsg:
		st.receiveBad(m.items)
	}
}

// receiveBad unpacks the batch but never releases it.
func (st *state) receiveBad(items []update) {
	total := 0
	for _, u := range items {
		total += u.v
	}
	_ = total
} // want "tram batch \"items\" may not be released on this path"

func (st *state) deliverEarly(msg any) {
	switch m := msg.(type) {
	case batchMsg:
		st.receiveEarlyReturn(m.items)
	}
}

// receiveEarlyReturn leaks only on the early-return path.
func (st *state) receiveEarlyReturn(items []update) {
	if len(items) == 0 {
		return // want "tram batch \"items\" may not be released on this path"
	}
	st.tm.Release(items)
}

func (st *state) deliverDefer(msg any) {
	switch m := msg.(type) {
	case batchMsg:
		st.receiveDefer(m.items)
	}
}

func (st *state) receiveDefer(items []update) {
	defer st.tm.Release(items)
	for range items {
	}
}

func (st *state) deliverForward(msg any) {
	switch m := msg.(type) {
	case batchMsg:
		st.receiveForward(m.items)
	}
}

// receiveForward hands the whole batch on: ownership transfers with it.
func (st *state) receiveForward(items []update) {
	st.pe.Send(1, batchMsg{items: items}, len(items))
}

// deliverInline unpacks the carrier field in place without releasing; the
// leak is reported at the end of the case var's scope.
func (st *state) deliverInline(msg any) {
	switch m := msg.(type) {
	case batchMsg:
		for range m.items {
		} // want "tram batch \"m.items\" may not be released on this path"
	}
}

// deliverInlineGood unpacks in place and releases.
func (st *state) deliverInlineGood(msg any) {
	switch m := msg.(type) {
	case batchMsg:
		for range m.items {
		}
		st.tm.Release(m.items)
	}
}

// receiveBlessed is a deliberate keep-alive, exempted by directive.
//
//acic:allow-unreleased fixture: batch is retained for replay
func (st *state) receiveBlessed(items []update) {
	for range items {
	}
}

func (st *state) deliverBlessed(msg any) {
	switch m := msg.(type) {
	case batchMsg:
		st.receiveBlessed(m.items)
	}
}

// ptrMsg is a carrier that travels as a pooled pointer: its items field is
// assigned from Batch.Items after the header is drawn, which marks it just
// as a composite literal does.
type ptrMsg struct{ items []update }

var headers []*ptrMsg

func (st *state) producePtr(b *tram.Batch[update]) {
	m := headers[len(headers)-1]
	m.items = b.Items
	st.pe.Send(b.DestPE, m, len(m.items))
}

// deliverPtrGood unpacks through the pointer and releases the items
// before the header goes back.
func (st *state) deliverPtrGood(msg any) {
	switch m := msg.(type) {
	case *ptrMsg:
		for range m.items {
		}
		st.tm.Release(m.items)
		headers = append(headers, m)
	}
}

// deliverPtrBad recycles the header but leaks the items it carried.
func (st *state) deliverPtrBad(msg any) {
	switch m := msg.(type) {
	case *ptrMsg:
		for range m.items {
		}
		headers = append(headers, m) // want "tram batch \"m.items\" may not be released on this path"
	}
}
