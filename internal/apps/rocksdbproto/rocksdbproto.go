// Package rocksdbproto implements the simple text protocol of the paper's
// UDP-based RocksDB server (§5.3): GET point lookups and SCAN range reads
// against the LSM store, with real request parsing so the Fig. 8b workload
// can run protocol-faithfully over the lite network stack.
//
// Wire format (one request per datagram):
//
//	GET <key>\r\n
//	SCAN <start-key> <count>\r\n
//	PUT <key> <len>\r\n<data>\r\n
//
// SCAN is a prefix scan: it returns, in key order, the values of up to
// <count> keys that extend <start-key> (<start-key> itself included), and
// fewer when the prefix runs out.
//
// Responses:
//
//	VALUE <len>\r\n<data>\r\n           (GET hit)
//	NOT_FOUND\r\n                       (GET miss)
//	ROWS <n>\r\n<len> <data>\r\n...\r\n (SCAN)
//	OK\r\n                              (PUT)
//	ERR <reason>\r\n
package rocksdbproto

import (
	"bytes"
	"fmt"
	"strconv"

	"skyloft/internal/apps/kvstore"
)

// Op identifies a request type.
type Op uint8

const (
	// Get is a point lookup.
	Get Op = iota
	// Scan reads, in key order, up to Count rows whose keys extend Key.
	Scan
	// Put stores a value.
	Put
)

// Request is one parsed request.
type Request struct {
	Op    Op
	Key   string
	Count int    // Scan
	Data  []byte // Put
}

var crlf = []byte("\r\n")

// FormatRequest renders a request in wire format.
func FormatRequest(r Request) []byte {
	switch r.Op {
	case Get:
		return []byte("GET " + r.Key + "\r\n")
	case Scan:
		return []byte(fmt.Sprintf("SCAN %s %d\r\n", r.Key, r.Count))
	case Put:
		var b bytes.Buffer
		fmt.Fprintf(&b, "PUT %s %d\r\n", r.Key, len(r.Data))
		b.Write(r.Data)
		b.Write(crlf)
		return b.Bytes()
	}
	return nil
}

// ParseRequest parses one wire-format request.
func ParseRequest(msg []byte) (Request, error) {
	line, rest, ok := bytes.Cut(msg, crlf)
	if !ok {
		return Request{}, fmt.Errorf("rocksdbproto: missing CRLF")
	}
	fields := bytes.Fields(line)
	if len(fields) == 0 {
		return Request{}, fmt.Errorf("rocksdbproto: empty request")
	}
	switch string(fields[0]) {
	case "GET":
		if len(fields) != 2 {
			return Request{}, fmt.Errorf("rocksdbproto: GET wants 1 key")
		}
		return Request{Op: Get, Key: string(fields[1])}, nil
	case "SCAN":
		if len(fields) != 3 {
			return Request{}, fmt.Errorf("rocksdbproto: SCAN wants key and count")
		}
		n, err := strconv.Atoi(string(fields[2]))
		if err != nil || n <= 0 {
			return Request{}, fmt.Errorf("rocksdbproto: bad SCAN count")
		}
		return Request{Op: Scan, Key: string(fields[1]), Count: n}, nil
	case "PUT":
		if len(fields) != 3 {
			return Request{}, fmt.Errorf("rocksdbproto: PUT wants key and length")
		}
		n, err := strconv.Atoi(string(fields[2]))
		if err != nil || n < 0 {
			return Request{}, fmt.Errorf("rocksdbproto: bad PUT length")
		}
		if len(rest) < n+2 || !bytes.Equal(rest[n:n+2], crlf) {
			return Request{}, fmt.Errorf("rocksdbproto: PUT data malformed")
		}
		return Request{Op: Put, Key: string(fields[1]), Data: append([]byte(nil), rest[:n]...)}, nil
	default:
		return Request{}, fmt.Errorf("rocksdbproto: unknown command %q", fields[0])
	}
}

// Response is one parsed reply.
type Response struct {
	Status string   // "VALUE", "NOT_FOUND", "ROWS", "OK", "ERR"
	Data   []byte   // VALUE payload
	Rows   [][]byte // ROWS payloads
	Err    string
}

// ParseResponse parses a server reply.
func ParseResponse(msg []byte) (Response, error) {
	line, rest, ok := bytes.Cut(msg, crlf)
	if !ok {
		return Response{}, fmt.Errorf("rocksdbproto: missing CRLF")
	}
	fields := bytes.Fields(line)
	if len(fields) == 0 {
		return Response{}, fmt.Errorf("rocksdbproto: empty response")
	}
	switch string(fields[0]) {
	case "VALUE":
		if len(fields) != 2 {
			return Response{}, fmt.Errorf("rocksdbproto: bad VALUE header")
		}
		n, err := strconv.Atoi(string(fields[1]))
		if err != nil || n < 0 || len(rest) < n {
			return Response{}, fmt.Errorf("rocksdbproto: bad VALUE length")
		}
		return Response{Status: "VALUE", Data: append([]byte(nil), rest[:n]...)}, nil
	case "NOT_FOUND":
		return Response{Status: "NOT_FOUND"}, nil
	case "OK":
		return Response{Status: "OK"}, nil
	case "ROWS":
		if len(fields) != 2 {
			return Response{}, fmt.Errorf("rocksdbproto: bad ROWS header")
		}
		n, err := strconv.Atoi(string(fields[1]))
		if err != nil || n < 0 {
			return Response{}, fmt.Errorf("rocksdbproto: bad ROWS count")
		}
		resp := Response{Status: "ROWS"}
		for i := 0; i < n; i++ {
			var rowLine []byte
			rowLine, rest, ok = bytes.Cut(rest, crlf)
			if !ok {
				return Response{}, fmt.Errorf("rocksdbproto: truncated ROWS")
			}
			sp := bytes.IndexByte(rowLine, ' ')
			if sp < 0 {
				return Response{}, fmt.Errorf("rocksdbproto: bad row line")
			}
			ln, err := strconv.Atoi(string(rowLine[:sp]))
			if err != nil || ln != len(rowLine[sp+1:]) {
				return Response{}, fmt.Errorf("rocksdbproto: row length mismatch")
			}
			resp.Rows = append(resp.Rows, append([]byte(nil), rowLine[sp+1:]...))
		}
		return resp, nil
	case "ERR":
		return Response{Status: "ERR", Err: string(bytes.TrimPrefix(line, []byte("ERR ")))}, nil
	default:
		return Response{}, fmt.Errorf("rocksdbproto: unknown response %q", fields[0])
	}
}

// Server couples the protocol with an LSM store.
type Server struct {
	DB *kvstore.LSM

	gets, scans, puts, errors uint64
}

// NewServer wraps db.
func NewServer(db *kvstore.LSM) *Server { return &Server{DB: db} }

// Stats reports request counters.
func (s *Server) Stats() (gets, scans, puts, errors uint64) {
	return s.gets, s.scans, s.puts, s.errors
}

// Handle processes one request message and returns the reply bytes.
func (s *Server) Handle(msg []byte) []byte {
	req, err := ParseRequest(msg)
	if err != nil {
		s.errors++
		return []byte("ERR parse\r\n")
	}
	switch req.Op {
	case Get:
		s.gets++
		v, ok := s.DB.Get(req.Key)
		if !ok {
			return []byte("NOT_FOUND\r\n")
		}
		var b bytes.Buffer
		fmt.Fprintf(&b, "VALUE %d\r\n", len(v))
		b.WriteString(v)
		b.Write(crlf)
		return b.Bytes()
	case Scan:
		s.scans++
		// [Key, Key+"\xff") holds exactly the keys extending Key, bar
		// those whose next byte is 0xff (not valid in UTF-8 key text).
		rows := s.DB.Scan(req.Key, req.Key+"\xff", req.Count)
		var b bytes.Buffer
		fmt.Fprintf(&b, "ROWS %d\r\n", len(rows))
		for _, r := range rows {
			fmt.Fprintf(&b, "%d %s\r\n", len(r), r)
		}
		return b.Bytes()
	case Put:
		s.puts++
		s.DB.Put(req.Key, string(req.Data))
		return []byte("OK\r\n")
	default:
		s.errors++
		return []byte("ERR op\r\n")
	}
}
