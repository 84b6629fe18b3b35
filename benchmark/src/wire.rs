//! The load generator's HTTP/1.1 client: keep-alive GETs over one socket,
//! `Content-Length` and chunked bodies. It is the rig's own code, so a change
//! to the repo's `HttpConnection` cannot move an end-to-end number.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest the client waits on the socket before calling a request failed.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    /// Bytes read off the socket and not yet consumed.
    buf: Vec<u8>,
    /// Read cursor into `buf`.
    pos: usize,
    /// Decoded body of the last response.
    body: Vec<u8>,
    /// Where `read` lands before the bytes join `buf`.
    chunk: Vec<u8>,
}

pub struct Reply {
    pub status: u16,
    /// Request written → first response byte read.
    pub ttfb: Duration,
    /// Request written → last body byte read.
    pub total: Duration,
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        Ok(Conn {
            addr,
            stream: connect(addr)?,
            buf: Vec::with_capacity(64 * 1024),
            pos: 0,
            body: Vec::with_capacity(64 * 1024),
            chunk: vec![0; 32 * 1024],
        })
    }

    /// Drop the socket and dial again (after a server-announced close or an
    /// error that leaves the stream position unknown).
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = connect(self.addr)?;
        self.buf.clear();
        self.pos = 0;
        Ok(())
    }

    /// Body of the last response.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// One GET, timed from just before the request is written. When the
    /// server announces `Connection: close` (its per-connection request cap)
    /// the client redials after the clock has stopped: a reconnect, not a
    /// failure.
    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n");
        self.buf.clear();
        self.pos = 0;
        self.body.clear();
        let started = Instant::now();
        self.stream.write_all(request.as_bytes())?;
        self.fill()?;
        let ttfb = started.elapsed();
        let head_end = loop {
            if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                break at;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let (mut length, mut chunked, mut close) = (None, false, false);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        self.pos = head_end + 4;
        if chunked {
            self.read_chunked()?;
        } else {
            let length = length.ok_or_else(|| bad("response without framing"))?;
            while self.buf.len() - self.pos < length {
                self.fill()?;
            }
            self.body
                .extend_from_slice(&self.buf[self.pos..self.pos + length]);
        }
        let total = started.elapsed();
        if close {
            self.reconnect()?;
        }
        Ok(Reply {
            status,
            ttfb,
            total,
        })
    }

    fn fill(&mut self) -> io::Result<()> {
        match self.stream.read(&mut self.chunk)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            )),
            n => {
                self.buf.extend_from_slice(&self.chunk[..n]);
                Ok(())
            }
        }
    }

    fn read_chunked(&mut self) -> io::Result<()> {
        loop {
            let line_end = loop {
                if let Some(at) = find(&self.buf[self.pos..], b"\r\n") {
                    break self.pos + at;
                }
                self.fill()?;
            };
            let size = std::str::from_utf8(&self.buf[self.pos..line_end])
                .ok()
                .and_then(|s| {
                    usize::from_str_radix(s.split(';').next().unwrap_or("").trim(), 16).ok()
                })
                .ok_or_else(|| bad("malformed chunk size"))?;
            self.pos = line_end + 2;
            // Chunk data (or nothing, for the last chunk) and its CRLF.
            while self.buf.len() - self.pos < size + 2 {
                self.fill()?;
            }
            self.body
                .extend_from_slice(&self.buf[self.pos..self.pos + size]);
            self.pos += size + 2;
            if size == 0 {
                return Ok(());
            }
        }
    }
}

pub fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection server that answers each request with the next
    /// canned response.
    fn serve(responses: Vec<&'static [u8]>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut scratch = [0u8; 1024];
            for response in responses {
                let mut seen = Vec::new();
                while find(&seen, b"\r\n\r\n").is_none() {
                    let n = sock.read(&mut scratch).unwrap();
                    seen.extend_from_slice(&scratch[..n]);
                }
                // Dribble the bytes so the client must reassemble them.
                for piece in response.chunks(7) {
                    sock.write_all(piece).unwrap();
                }
            }
        });
        addr
    }

    #[test]
    fn decodes_length_and_chunked_bodies_on_one_connection() {
        let addr = serve(vec![
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n6\r\npedia \r\n0\r\n\r\n",
            b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n",
        ]);
        let mut conn = Conn::open(addr).unwrap();
        let r = conn.get("/a").unwrap();
        assert_eq!((r.status, conn.body()), (200, &b"hello"[..]));
        assert!(r.ttfb <= r.total);
        let r = conn.get("/b").unwrap();
        assert_eq!((r.status, conn.body()), (200, &b"Wikipedia "[..]));
        let r = conn.get("/c").unwrap();
        assert_eq!((r.status, conn.body()), (404, &b""[..]));
    }
}
