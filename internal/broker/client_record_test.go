package broker

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/advert"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func TestClientRecord(t *testing.T) {
	sub := func(e string) *Message { return &Message{Type: MsgSubscribe, XPE: xpath.MustParse(e)} }
	unsub := func(e string) *Message { return &Message{Type: MsgUnsubscribe, XPE: xpath.MustParse(e)} }
	adv := func(id string) *Message {
		return &Message{Type: MsgAdvertise, AdvID: id, Adv: advert.MustParse("/a/b")}
	}
	unadv := func(id string) *Message { return &Message{Type: MsgUnadvertise, AdvID: id} }
	pub := &Message{Type: MsgPublish, Pub: xmldoc.Publication{Path: []string{"a"}}}

	cases := []struct {
		name    string
		durable string
		send    []*Message
		want    string // the record, rendered by render
	}{
		{"subscribe", "", []*Message{sub("/a")}, "subscribe /a"},
		{"duplicate subscribe is kept once", "", []*Message{sub("/a"), sub("/a"), sub("/b")}, "subscribe /a; subscribe /b"},
		{"duplicate then one unsubscribe leaves nothing", "", []*Message{sub("/a"), sub("/a"), unsub("/a")}, ""},
		{"unsubscribe of a recorded expression", "", []*Message{sub("/a"), sub("/b"), unsub("/a")}, "subscribe /b"},
		{"unsubscribe of an unknown expression", "", []*Message{sub("/a"), unsub("/c")}, "subscribe /a"},
		{"advertise then unadvertise", "", []*Message{adv("x"), adv("y"), unadv("x")}, "advertise y"},
		{"unadvertise of an unknown id", "", []*Message{adv("x"), unadv("z")}, "advertise x"},
		{"resubscribe after unsubscribe", "", []*Message{sub("/a"), unsub("/a"), sub("/a")}, "subscribe /a"},
		{"durable conversion", "d", []*Message{sub("/a"), sub("/a"), sub("/b")}, "subscribe-durable d /a; subscribe-durable d /b"},
		{"publications and acks are never recorded", "d", []*Message{
			pub, {Type: MsgAck, Durable: "d", Seq: 3}, {Type: MsgHeartbeat}, sub("/a"),
		}, "subscribe-durable d /a"},
	}
	render := func(ms []*Message) string {
		var parts []string
		for _, m := range ms {
			switch m.Type {
			case MsgAdvertise:
				parts = append(parts, fmt.Sprintf("%s %s", m.Type, m.AdvID))
			case MsgSubscribeDurable:
				parts = append(parts, fmt.Sprintf("%s %s %s", m.Type, m.Durable, m.XPE))
			default:
				parts = append(parts, fmt.Sprintf("%s %s", m.Type, m.XPE))
			}
		}
		return strings.Join(parts, "; ")
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := ClientRecord{Durable: c.durable}
			for _, m := range c.send {
				r.Prepare(m)
				r.Note(m)
			}
			if got := render(r.Messages()); got != c.want {
				t.Errorf("record = %q, want %q", got, c.want)
			}
		})
	}
}
