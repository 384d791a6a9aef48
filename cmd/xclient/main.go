// Command xclient is a publisher/subscriber endpoint for a TCP broker
// network.
//
// Subscribe and wait for deliveries:
//
//	xclient -connect localhost:7003 -id sub1 -subscribe "/nitf/body//p"
//
// Advertise a DTD and publish documents:
//
//	xclient -connect localhost:7001 -id pub1 -advertise-dtd news.dtd
//	xclient -connect localhost:7001 -id pub1 -publish article.xml
//
// The built-in corpora are available as "-advertise-dtd nitf" and
// "-advertise-dtd psd".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/dtd"
	"repro/internal/dtddata"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(os.Stderr, "xclient: %v\n", err)
		}
		os.Exit(1)
	}
}

// run executes one xclient invocation (one of advertise, publish, or
// subscribe-and-wait), writing progress and deliveries to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("xclient", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		connect      = fs.String("connect", "localhost:7001", "broker address")
		id           = fs.String("id", "client1", "client identifier")
		subscribe    = fs.String("subscribe", "", "XPath subscription; waits for deliveries")
		publish      = fs.String("publish", "", "XML file to publish as a document")
		advertiseDTD = fs.String("advertise-dtd", "", "DTD file (or 'nitf'/'psd') whose advertisements to flood")
		wait         = fs.Duration("wait", 0, "how long to wait for deliveries (0 = forever)")
		raw          = fs.Bool("raw", false, "publish the file as raw XML bytes so brokers route it with the streaming matcher (no tree is ever built)")
		traced       = fs.Bool("trace", false, "stamp the publication with a trace ID for per-hop tracing (query /debug/traces on the brokers)")
		reconnect    = fs.Bool("reconnect", false, "redial a lost broker connection with backoff and replay subscriptions/advertisements")
		durable      = fs.String("durable", "", "durable subscription name: the broker logs matches under this name while disconnected and replays the unacknowledged gap on reattach (requires a broker started with -durable-dir)")
		noAck        = fs.Bool("no-ack", false, "with -durable, do not auto-acknowledge deliveries (the unacked window then replays on every reattach)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	c, err := transport.DialOptions(*connect, *id, transport.ClientOptions{
		Reconnect: *reconnect,
		Durable:   *durable,
		AutoAck:   *durable != "" && !*noAck,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	switch {
	case *advertiseDTD != "":
		d, err := loadDTD(*advertiseDTD)
		if err != nil {
			return err
		}
		advs, err := advert.Generate(d)
		if err != nil {
			return err
		}
		for i, a := range advs {
			msg := &broker.Message{Type: broker.MsgAdvertise, AdvID: fmt.Sprintf("%s-a%d", *id, i), Adv: a}
			if err := c.Send(msg); err != nil {
				return fmt.Errorf("advertise: %w", err)
			}
		}
		fmt.Fprintf(out, "advertised %d path patterns from %s\n", len(advs), *advertiseDTD)

	case *publish != "":
		data, err := os.ReadFile(*publish)
		if err != nil {
			return err
		}
		// Parse locally even for -raw: a malformed document would be
		// silently dropped by the first broker, so fail fast here instead.
		doc, err := xmldoc.Parse(data)
		if err != nil {
			return err
		}
		msg := &broker.Message{Type: broker.MsgPublish}
		if *raw {
			msg.Raw = data
		} else {
			msg.Doc = doc
		}
		if *traced {
			msg.TraceID = trace.NewID()
		}
		if err := c.Send(msg); err != nil {
			return fmt.Errorf("publish: %w", err)
		}
		form := ""
		if *raw {
			form = ", raw"
		}
		fmt.Fprintf(out, "published %s (%d bytes, %d paths%s)%s\n",
			*publish, doc.Size(), len(doc.Paths()), form, traceNote(msg.TraceID))

	case *subscribe != "":
		x, err := xpath.Parse(*subscribe)
		if err != nil {
			return err
		}
		if err := c.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: x}); err != nil {
			return fmt.Errorf("subscribe: %w", err)
		}
		if *durable != "" {
			fmt.Fprintf(out, "subscribed to %s as durable %q; waiting for documents\n", x, *durable)
		} else {
			fmt.Fprintf(out, "subscribed to %s; waiting for documents\n", x)
		}
		deadline := make(<-chan time.Time)
		if *wait > 0 {
			deadline = time.After(*wait)
		}
		for {
			select {
			case m, ok := <-c.Deliveries:
				if !ok {
					return fmt.Errorf("connection closed")
				}
				switch m.Type {
				case broker.MsgReplayBegin:
					fmt.Fprintf(out, "replay begins from seq %d\n", m.Seq)
				case broker.MsgReplayEnd:
					fmt.Fprintf(out, "replay complete through seq %d\n", m.Seq)
				default:
					printDelivery(out, m)
				}
			case <-deadline:
				return nil
			}
		}

	default:
		fs.Usage()
		return fmt.Errorf("one of -subscribe, -publish, -advertise-dtd is required")
	}
	return nil
}

func loadDTD(name string) (*dtd.DTD, error) {
	switch name {
	case "nitf":
		return dtddata.NITF(), nil
	case "psd":
		return dtddata.PSD(), nil
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return dtd.Parse(string(data))
}

func printDelivery(out io.Writer, m *broker.Message) {
	delay := ""
	if m.Durable != "" {
		delay = fmt.Sprintf(" seq=%d", m.Seq)
	}
	if m.Stamp != 0 {
		delay += fmt.Sprintf(" (delay %v)", time.Since(time.Unix(0, m.Stamp)).Round(time.Microsecond))
	}
	switch {
	case m.Doc != nil:
		fmt.Fprintf(out, "received document <%s> with %d paths%s%s\n", m.Doc.Root.Name, len(m.Doc.Paths()), delay, hopNote(m))
	case len(m.Raw) > 0:
		// Raw bodies arrive as the publisher's bytes; parse locally for a
		// readable summary (brokers validated it while routing).
		if doc, err := xmldoc.Parse(m.Raw); err == nil {
			fmt.Fprintf(out, "received raw document <%s> (%d bytes, %d paths)%s%s\n",
				doc.Root.Name, len(m.Raw), len(doc.Paths()), delay, hopNote(m))
		} else {
			fmt.Fprintf(out, "received raw document (%d bytes)%s%s\n", len(m.Raw), delay, hopNote(m))
		}
	default:
		fmt.Fprintf(out, "received %s%s%s\n", m.Pub, delay, hopNote(m))
	}
	printHopStages(out, m)
}

// printHopStages breaks a traced delivery's end-to-end latency down by hop
// and stage: one indented line per broker with its in-broker stage
// durations, then the total in-broker time versus the wall-clock end-to-end
// delay — the difference is network transit plus inter-broker queueing.
func printHopStages(out io.Writer, m *broker.Message) {
	if m.TraceID == "" {
		return
	}
	var inBroker int64
	for _, h := range m.Hops {
		if len(h.Stages) == 0 {
			continue
		}
		fmt.Fprintf(out, "  hop %s:", h.Broker)
		for _, s := range h.Stages {
			fmt.Fprintf(out, " %s=%v", s.Stage, time.Duration(s.Nanos))
		}
		total := h.TotalStageNanos()
		inBroker += total
		fmt.Fprintf(out, " (in-broker %v)\n", time.Duration(total))
	}
	if inBroker == 0 {
		return
	}
	line := fmt.Sprintf("  in-broker total %v", time.Duration(inBroker))
	if m.Stamp != 0 {
		e2e := time.Since(time.Unix(0, m.Stamp))
		line += fmt.Sprintf(" of %v end-to-end (rest is transit)", e2e.Round(time.Microsecond))
	}
	fmt.Fprintln(out, line)
}

// hopNote renders a traced delivery's broker path, e.g. " via b1>b2>b3".
func hopNote(m *broker.Message) string {
	if len(m.Hops) == 0 {
		return ""
	}
	ids := make([]string, len(m.Hops))
	for i, h := range m.Hops {
		ids[i] = h.Broker
	}
	return " via " + strings.Join(ids, ">")
}

func traceNote(id string) string {
	if id == "" {
		return ""
	}
	return " trace=" + id
}
