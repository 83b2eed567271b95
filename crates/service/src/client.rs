//! A blocking client for `reclaimd`: serial [`Client::roundtrip`] or
//! pipelined [`Client::pipeline`] (up to a window of requests in
//! flight, responses matched by `id` in whatever order the daemon
//! finishes them).

use crate::daemon::{self, Endpoint, Stream};
use crate::proto::{
    read_frame, write_frame, ErrorBody, ErrorKind, FrameError, Request, RequestEnvelope, Response,
    ResponseEnvelope,
};
use std::collections::HashSet;
use std::fmt;
use std::io;
use std::time::{Duration, Instant};
use taskgraph::edit::GraphEdit;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// Framing failure (truncated/oversized frame from the daemon).
    Frame(FrameError),
    /// The daemon's bytes decoded but violated the protocol.
    Protocol(ErrorBody),
    /// The daemon closed the stream before answering.
    Closed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Frame(e) => write!(f, "framing error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Closed => write!(f, "daemon closed the connection without answering"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection to a running daemon.
pub struct Client {
    stream: Stream,
    next_id: u64,
    timeout_ms: Option<u64>,
    as_of: Option<u64>,
}

impl Client {
    /// Connect once.
    pub fn connect(ep: &Endpoint) -> io::Result<Client> {
        Ok(Client {
            stream: daemon::connect(ep)?,
            next_id: 1,
            timeout_ms: None,
            as_of: None,
        })
    }

    /// Wrap an already-connected Unix stream (tests drive the client
    /// against a scripted in-process peer this way).
    pub fn from_unix(stream: std::os::unix::net::UnixStream) -> Client {
        Client {
            stream: Box::new(stream),
            next_id: 1,
            timeout_ms: None,
            as_of: None,
        }
    }

    /// Attach a per-request queue-wait budget to every subsequent
    /// request (`None` clears it). A request still queued when the
    /// budget elapses is answered with the structured
    /// [`ErrorKind::Timeout`] error instead of being solved. Carrying
    /// the field bumps the envelope to protocol v4.
    pub fn set_timeout_ms(&mut self, timeout_ms: Option<u64>) {
        self.timeout_ms = timeout_ms;
    }

    /// Rewind every subsequent `solve` / `energy_curve` to the version
    /// `depth` recorded patches up its lineage chain (`None` — or a
    /// depth of 0 — clears it back to the present). Needs a daemon
    /// started with `--store`; carrying the field bumps the envelope
    /// to protocol v5.
    pub fn set_as_of(&mut self, as_of: Option<u64>) {
        self.as_of = as_of.filter(|&d| d > 0);
    }

    /// Send a v5 `lineage` query: the recorded patch history of the
    /// instance stored under `key`, oldest hop first. Needs a daemon
    /// started with `--store`.
    pub fn lineage(&mut self, key: u128) -> Result<ResponseEnvelope, ClientError> {
        self.roundtrip(Request::Lineage { key })
    }

    /// Connect, retrying until `timeout` elapses — for racing a daemon
    /// that is still binding its socket (tests, CI smoke steps).
    pub fn connect_with_retry(ep: &Endpoint, timeout: Duration) -> io::Result<Client> {
        let start = Instant::now();
        loop {
            match Client::connect(ep) {
                Ok(c) => return Ok(c),
                Err(e) if start.elapsed() >= timeout => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Send one request and block for its response. Ids are assigned
    /// automatically and verified on the way back (this client does
    /// not pipeline, so responses arrive in order): a response under
    /// another id is a [`ClientError::Protocol`] error, except an
    /// error under id 0, which is how the daemon answers a frame it
    /// cannot attribute (a framing violation, a connection-limit
    /// rejection) and is returned as it is. The envelope rides the
    /// lowest protocol version able to carry the request, so
    /// everything but `patch` stays v1-compatible.
    pub fn roundtrip(&mut self, request: Request) -> Result<ResponseEnvelope, ClientError> {
        let id = self.write_request(request)?;
        let resp = self.read_response()?;
        let unattributed = resp.id == 0 && matches!(resp.response, Response::Error(_));
        if resp.id != id && !unattributed {
            return Err(protocol_error(format!(
                "response id {} answers no request (sent {id})",
                resp.id
            )));
        }
        Ok(resp)
    }

    /// Write `request` in an envelope under the next id, carrying this
    /// client's queue-wait budget and `as_of` depth. Returns the id.
    fn write_request(&mut self, request: Request) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let env = RequestEnvelope::new(id, request)
            .with_timeout_ms(self.timeout_ms)
            .with_as_of(self.as_of);
        write_frame(&mut self.stream, &env.encode())?;
        Ok(id)
    }

    /// Read and decode the next response frame.
    fn read_response(&mut self) -> Result<ResponseEnvelope, ClientError> {
        let payload = read_frame(&mut self.stream)
            .map_err(ClientError::Frame)?
            .ok_or(ClientError::Closed)?;
        ResponseEnvelope::decode(&payload).map_err(ClientError::Protocol)
    }

    /// Start a pipelined exchange: up to `window` requests in flight
    /// before [`Pipeline::send`] blocks to collect a response.
    /// Responses are matched to requests by `id` — the daemon answers
    /// in completion order, not send order, so out-of-order arrival is
    /// normal and handled. Call [`Pipeline::drain`] to collect every
    /// outstanding response at the end.
    pub fn pipeline(&mut self, window: usize) -> Pipeline<'_> {
        Pipeline {
            client: self,
            window: window.max(1),
            pending: HashSet::new(),
            ready: Vec::new(),
        }
    }

    /// Send a v2 `patch`: edit the instance the daemon already caches
    /// under `base` ([`reclaim_core::engine::content_key`] of the
    /// graph and model) and solve the result at `deadline` — without
    /// resending the graph. The daemon answers
    /// [`crate::proto::Response::Patch`] carrying the edited
    /// instance's new content key (the `base` for the next patch in a
    /// chain), or an [`crate::proto::ErrorKind::UnknownBase`] error
    /// when the base was never cached or has been evicted — fall back
    /// to a full [`crate::proto::Request::Solve`] then.
    ///
    /// ```no_run
    /// use reclaim_service::client::Client;
    /// use reclaim_service::daemon::Endpoint;
    /// use reclaim_service::proto::Response;
    /// use reclaim_core::engine::content_key;
    /// use models::EnergyModel;
    /// use taskgraph::edit::GraphEdit;
    /// use taskgraph::TaskGraph;
    ///
    /// let mut client = Client::connect(&Endpoint::Unix("reclaimd.sock".into()))?;
    /// let graph = TaskGraph::new(vec![2.0, 4.0], &[(0, 1)]).unwrap();
    /// let model = EnergyModel::continuous_unbounded();
    /// // The daemon holds this instance from an earlier solve; name
    /// // it by content key and send only the delta.
    /// let base = content_key(&graph, &model);
    /// let reply = client
    ///     .patch(base, &[GraphEdit::SetWeight { task: 1, weight: 5.0 }], 3.0)
    ///     .unwrap();
    /// if let Response::Patch(p) = reply.response {
    ///     assert_eq!(p.report.prep_ns, 0, "weight edits re-prepare nothing");
    ///     let _next_base = p.key; // chain further edits from here
    /// }
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn patch(
        &mut self,
        base: u128,
        edits: &[GraphEdit],
        deadline: f64,
    ) -> Result<ResponseEnvelope, ClientError> {
        self.roundtrip(Request::Patch {
            base,
            edits: edits.to_vec(),
            deadline,
        })
    }
}

/// A pipelined exchange over one connection (see
/// [`Client::pipeline`]). Dropping a pipeline with responses still in
/// flight leaves them on the stream; the next serial `roundtrip`
/// would mis-match, so [`Pipeline::drain`] first.
pub struct Pipeline<'a> {
    client: &'a mut Client,
    window: usize,
    /// Ids sent but not yet answered.
    pending: HashSet<u64>,
    /// Responses read while waiting for window space, not yet handed
    /// to the caller.
    ready: Vec<ResponseEnvelope>,
}

impl Pipeline<'_> {
    /// Send one request, first collecting a response if the window is
    /// full. Returns the assigned request id.
    pub fn send(&mut self, request: Request) -> Result<u64, ClientError> {
        while self.pending.len() >= self.window {
            let resp = self.recv_matched()?;
            self.ready.push(resp);
        }
        let id = self.client.write_request(request)?;
        self.pending.insert(id);
        Ok(id)
    }

    /// Collect the next response, in daemon completion order: a
    /// response buffered while `send` waited for window space, or the
    /// next one off the stream. Errors with a structured protocol
    /// error if the daemon answers an id this pipeline never sent.
    pub fn recv(&mut self) -> Result<ResponseEnvelope, ClientError> {
        if !self.ready.is_empty() {
            return Ok(self.ready.remove(0));
        }
        self.recv_matched()
    }

    /// Take the responses that were read off the stream while `send`
    /// waited for window space, without blocking. Useful for latency
    /// accounting: callers that timestamp arrivals can collect these
    /// right after each `send` instead of discovering them in a final
    /// `drain`.
    pub fn take_ready(&mut self) -> Vec<ResponseEnvelope> {
        std::mem::take(&mut self.ready)
    }

    /// Number of requests sent but not yet collected.
    pub fn outstanding(&self) -> usize {
        self.pending.len() + self.ready.len()
    }

    /// Collect every outstanding response.
    pub fn drain(&mut self) -> Result<Vec<ResponseEnvelope>, ClientError> {
        let mut out = std::mem::take(&mut self.ready);
        while !self.pending.is_empty() {
            out.push(self.recv_matched()?);
        }
        Ok(out)
    }

    /// The next response, which must answer a pending request. An
    /// id-0 `Error` answers none: the daemon's framing-violation or
    /// connection-limit verdict comes back as that error, and every
    /// request stays pending.
    fn recv_matched(&mut self) -> Result<ResponseEnvelope, ClientError> {
        let resp = self.client.read_response()?;
        if let (0, Response::Error(body)) = (resp.id, &resp.response) {
            return Err(ClientError::Protocol(body.clone()));
        }
        if !self.pending.remove(&resp.id) {
            return Err(protocol_error(format!(
                "response id {} matches no pending request",
                resp.id
            )));
        }
        Ok(resp)
    }
}

/// A response that decoded but answers no request this client sent.
fn protocol_error(message: String) -> ClientError {
    ClientError::Protocol(ErrorBody::new(ErrorKind::Protocol, message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    /// A client whose scripted peer reads one request and answers
    /// `response` under `id`.
    fn scripted(id: u64, response: Response) -> (Client, std::thread::JoinHandle<()>) {
        let (ours, mut theirs) = UnixStream::pair().unwrap();
        let peer = std::thread::spawn(move || {
            let payload = read_frame(&mut theirs).unwrap().expect("one request");
            let req = RequestEnvelope::decode(&payload).unwrap();
            let resp = ResponseEnvelope {
                version: req.version,
                id,
                response,
            };
            write_frame(&mut theirs, &resp.encode()).unwrap();
        });
        (Client::from_unix(ours), peer)
    }

    /// Send one `stats` request to a scripted peer that answers
    /// `response` under `id`.
    fn answered_under(id: u64, response: Response) -> Result<ResponseEnvelope, ClientError> {
        let (mut client, peer) = scripted(id, response);
        let got = client.roundtrip(Request::Stats);
        peer.join().unwrap();
        got
    }

    #[test]
    fn roundtrip_rejects_a_reply_under_another_id() {
        match answered_under(99, Response::Shutdown) {
            Err(ClientError::Protocol(e)) => {
                assert_eq!(e.kind, ErrorKind::Protocol);
                assert!(e.message.contains("response id 99"), "{}", e.message);
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert!(answered_under(1, Response::Shutdown).is_ok());
    }

    #[test]
    fn roundtrip_returns_an_unattributed_error_as_it_is() {
        let body = ErrorBody::new(ErrorKind::Protocol, "bad length header");
        let resp = answered_under(0, Response::Error(body.clone())).unwrap();
        assert_eq!((resp.id, resp.response), (0, Response::Error(body)));
    }

    #[test]
    fn a_pipeline_surfaces_an_unattributed_error() {
        let body = ErrorBody::new(ErrorKind::Protocol, "connection limit reached");
        let (mut client, peer) = scripted(0, Response::Error(body));
        let mut pipe = client.pipeline(4);
        pipe.send(Request::Stats).unwrap();
        match pipe.recv() {
            Err(ClientError::Protocol(e)) => {
                assert_eq!(e.kind, ErrorKind::Protocol);
                assert_eq!(e.message, "connection limit reached");
            }
            other => panic!("expected the daemon's own error, got {other:?}"),
        }
        assert_eq!(pipe.outstanding(), 1, "the request stays pending");
        peer.join().unwrap();
    }
}
