//! A keep-alive HTTP/1.1 client: one TCP connection, many requests, with
//! the round trip timed from the first request byte written to the last
//! body byte read.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One answered request.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// Request write → last body byte.
    pub latency: Duration,
}

pub struct Client {
    port: u16,
    reader: Option<BufReader<TcpStream>>,
    request: Vec<u8>,
}

impl Client {
    pub fn new(port: u16) -> Client {
        Client {
            port,
            reader: None,
            request: Vec::new(),
        }
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(("127.0.0.1", self.port))?;
            // Requests go out in one write, but without NODELAY a reply
            // can still stall on delayed ACKs.
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.reader = Some(BufReader::with_capacity(1 << 16, stream));
        }
        Ok(self.reader.as_mut().expect("connected above"))
    }

    /// Send one request and read the whole reply. A transport error drops
    /// the connection; the next request reconnects.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let result = self.round_trip(method, path, body);
        if result.is_err() {
            self.reader = None;
        }
        result
    }

    fn round_trip(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let mut request = std::mem::take(&mut self.request);
        request.clear();
        write!(
            request,
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        request.extend_from_slice(body);
        let reader = self.connect()?;
        let start = Instant::now();
        let written = reader.get_mut().write_all(&request);
        self.request = request;
        written?;
        let reader = self.reader.as_mut().expect("connected above");
        let mut status = None;
        let mut length = None;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed",
                ));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if status.is_none() {
                status = line.split_whitespace().nth(1).and_then(|s| s.parse().ok());
            } else if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let (Some(status), Some(length)) = (status, length) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unframed response",
            ));
        };
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            body,
            latency: start.elapsed(),
        })
    }
}
