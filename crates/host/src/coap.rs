//! CoAP load front-end: routes request paths onto `CoapRequest` hooks.
//!
//! The paper's networked-sensor example (§8.3) hangs one container off
//! the CoAP-request launchpad of one device. A hosting server
//! generalises that: each tenant resource (`/t0/temp`, `/t1/temp`, …)
//! is its own hook, the front-end maps Uri-Path → hook, and the host
//! spreads the hooks over shards — so requests for different resources
//! execute concurrently while each resource keeps the paper's
//! single-device semantics.
//!
//! Per request the front-end builds exactly what the single-device
//! engine hands its CoAP containers: a `coap_ctx_bytes` context and a
//! writable packet buffer as the first host-granted region. The
//! container's combined return value is the response PDU length
//! (the convention of `fc_core::apps::coap_formatter`).

use std::collections::HashMap;
use std::sync::mpsc::Receiver;

use fc_core::engine::{EngineError, HookReport, HostRegion};
use fc_core::helpers_impl::coap_ctx_bytes;
use fc_kvstore::TenantId;
use fc_net::block::Block;
use fc_net::coap::{content_format, option, Code, Message};
use fc_suit::{UpdateError, Uuid};

use crate::deploy::{LiveDeployError, LiveUpdateService};
use crate::host::{FcHost, HookEvent, HostError};
use crate::queue::{Accepted, BatchAccepted};

/// Default response packet buffer size (the paper's examples format
/// well under 64 B of PDU).
pub const DEFAULT_PKT_LEN: usize = 128;

/// A decoded CoAP exchange outcome from [`CoapFront::dispatch_sync`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoapReply {
    /// The raw hook report (per-container executions, cycles).
    pub report: HookReport,
    /// The response PDU, trimmed to the container-reported length.
    pub pdu: Vec<u8>,
    /// The response, when the PDU parses as CoAP.
    pub message: Option<Message>,
}

/// Maps Uri-Paths onto hooks and packages requests as hook events.
#[derive(Debug, Clone, Default)]
pub struct CoapFront {
    routes: HashMap<String, Uuid>,
    pkt_len: usize,
}

impl CoapFront {
    /// Creates a front-end with the default packet buffer size.
    pub fn new() -> Self {
        CoapFront {
            routes: HashMap::new(),
            pkt_len: DEFAULT_PKT_LEN,
        }
    }

    /// Overrides the response packet buffer size.
    pub fn with_pkt_len(mut self, pkt_len: usize) -> Self {
        self.pkt_len = pkt_len;
        self
    }

    /// Routes a resource path (e.g. `"t0/temp"`) onto a hook.
    pub fn add_route(&mut self, path: &str, hook: Uuid) {
        self.routes.insert(normalize(path), hook);
    }

    /// Number of registered routes.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// The hook serving a path, if routed.
    pub fn hook_for(&self, path: &str) -> Option<Uuid> {
        self.routes.get(&normalize(path)).copied()
    }

    /// The (hook, ctx, packet region) triple a request maps to.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownHook`] with a nil UUID when the path has no
    /// route (the CoAP analogue is a 4.04).
    pub fn request_event(
        &self,
        request: &Message,
    ) -> Result<(Uuid, Vec<u8>, HostRegion), HostError> {
        let hook = self
            .hook_for(&request.path())
            .ok_or(HostError::UnknownHook(Uuid::from_name(
                "coap/unrouted",
                &request.path(),
            )))?;
        let ctx = coap_ctx_bytes(self.pkt_len as u32);
        let pkt = HostRegion::read_write("pkt", vec![0; self.pkt_len]);
        Ok((hook, ctx, pkt))
    }

    /// Enqueues a request without waiting for the response.
    ///
    /// # Errors
    ///
    /// Routing errors as [`CoapFront::request_event`]; queue errors as
    /// [`FcHost::fire`].
    pub fn dispatch(&self, host: &FcHost, request: &Message) -> Result<Accepted, HostError> {
        let (hook, ctx, pkt) = self.request_event(request)?;
        host.fire(hook, &ctx, std::slice::from_ref(&pkt))
    }

    /// Serves a request end to end, returning the formatted response.
    ///
    /// # Errors
    ///
    /// As [`CoapFront::dispatch`], plus [`HostError::Shed`] when the
    /// event was displaced before executing.
    pub fn dispatch_sync(&self, host: &FcHost, request: &Message) -> Result<CoapReply, HostError> {
        let (hook, ctx, pkt) = self.request_event(request)?;
        let report = host.fire_sync(hook, &ctx, std::slice::from_ref(&pkt))?;
        let pdu = response_pdu(&report);
        let message = Message::decode(&pdu).ok();
        Ok(CoapReply {
            report,
            pdu,
            message,
        })
    }

    /// Groups a request slice by target hook, preserving each hook's
    /// request order — the shared front half of the batched dispatch
    /// paths. Unrouted requests land in the error slots immediately.
    fn batch_groups(
        &self,
        requests: &[Message],
        errors: &mut [Option<HostError>],
    ) -> Vec<(Uuid, Vec<usize>, Vec<HookEvent>)> {
        let mut groups: Vec<(Uuid, Vec<usize>, Vec<HookEvent>)> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            match self.request_event(request) {
                Ok((hook, ctx, pkt)) => {
                    let event = HookEvent {
                        ctx,
                        extra: vec![pkt],
                    };
                    match groups.iter_mut().find(|(h, _, _)| *h == hook) {
                        Some((_, idxs, events)) => {
                            idxs.push(i);
                            events.push(event);
                        }
                        None => groups.push((hook, vec![i], vec![event])),
                    }
                }
                Err(e) => errors[i] = Some(e),
            }
        }
        groups
    }

    /// Serves a whole read batch end to end: requests are grouped by
    /// hook and each group rides one queue round-trip
    /// ([`FcHost::fire_batch_with_reply`]); replies come back in
    /// **request order**. Per-request outcomes are independent — an
    /// unrouted path or a shed event fails its own slot only.
    pub fn dispatch_batch(
        &self,
        host: &FcHost,
        requests: &[Message],
    ) -> Vec<Result<CoapReply, HostError>> {
        let mut errors: Vec<Option<HostError>> = vec![None; requests.len()];
        let mut slots: Vec<Option<CoapReply>> = vec![None; requests.len()];
        // Enqueue ALL groups before collecting any reply, so groups on
        // different shards execute concurrently — blocking on group 1's
        // replies before offering group 2 would serialize the shards
        // and turn batch latency into the sum of group times.
        let mut outstanding: Vec<(usize, Receiver<Result<HookReport, EngineError>>)> = Vec::new();
        for (hook, idxs, events) in self.batch_groups(requests, &mut errors) {
            match host.fire_batch_with_reply(hook, events) {
                Ok(receivers) => outstanding.extend(idxs.into_iter().zip(receivers)),
                Err(e) => {
                    for i in idxs {
                        errors[i] = Some(e.clone());
                    }
                }
            }
        }
        for (i, rx) in outstanding {
            match rx.recv() {
                Ok(Ok(report)) => {
                    let pdu = response_pdu(&report);
                    let message = Message::decode(&pdu).ok();
                    slots[i] = Some(CoapReply {
                        report,
                        pdu,
                        message,
                    });
                }
                Ok(Err(e)) => errors[i] = Some(HostError::Engine(e)),
                // Sender dropped without a send: shed.
                Err(_) => errors[i] = Some(HostError::Shed),
            }
        }
        slots
            .into_iter()
            .zip(errors)
            .map(|(slot, err)| match slot {
                Some(reply) => Ok(reply),
                None => Err(err.expect("every slot resolved")),
            })
            .collect()
    }

    /// Serves the SUIT control resources — the live-deploy lane of the
    /// front-end. Returns `None` when the path is not a SUIT resource
    /// (route it through the tenant dispatch paths instead).
    ///
    /// * `POST /suit/payload?name=<uri>` with a Block1 option stages
    ///   one payload chunk into the service (in-order, hole-free; a
    ///   zero-length terminal block is legal — see
    ///   [`LiveUpdateService::stage_block`]);
    /// * `POST /suit/manifest` submits the signed manifest envelope and
    ///   triggers the full live-deploy pipeline against the staged
    ///   payloads. The response carries the deploy report — accepted
    ///   ([`crate::deploy::DeployReport`] via `Display`) or the
    ///   rejection reason — as its payload, with 2.04 Changed /
    ///   4.01 Unauthorized / 4.00 Bad Request codes matching the
    ///   single-device endpoint's conventions, and 4.29 Too Many
    ///   Requests for a rate-limited tenant;
    /// * `GET /suit/report` polls a deploy outcome (accepted/rejected,
    ///   reason, sequence, with a monotone serial) — the recovery path
    ///   for an async client whose in-band manifest response was lost:
    ///   poll instead of blindly resubmitting. With a Uri-Query naming
    ///   a component UUID, the answer is scoped to **that component**
    ///   (tenant-safe: another tenant's later deploy never overwrites
    ///   it); without one it is the service-wide last apply. 2.05
    ///   Content with the [`crate::deploy::DeployPoll`] rendered in
    ///   the payload, or 4.04 Not Found when nothing was recorded
    ///   under that scope.
    pub fn dispatch_suit(
        &self,
        host: &FcHost,
        updates: &mut LiveUpdateService,
        request: &Message,
    ) -> Option<Message> {
        match normalize(&request.path()).as_str() {
            "suit/payload" => Some(Self::stage_suit_block(updates, request)),
            "suit/manifest" => Some(Self::apply_suit_manifest(host, updates, request)),
            "suit/report" => Some(Self::poll_suit_report(updates, request)),
            _ => None,
        }
    }

    /// Serves the observability resources — the scrape lane of the
    /// front-end. Returns `None` when the path is not an observability
    /// resource (route it through the tenant dispatch paths instead).
    ///
    /// * `GET /metrics` serves the host's full
    ///   [`crate::MetricsSnapshot`]: the human-readable text rendering
    ///   by default (`text/plain`), or the lossless binary encoding
    ///   (`application/octet-stream`) with a Uri-Query of `bin` — what
    ///   a fleet scraper asks for;
    /// * `GET /metrics/tenant/<id>` serves one tenant's row (2.05, or
    ///   4.04 when the tenant has never executed here);
    /// * `GET /trace` dumps the bounded event-trace ring, oldest event
    ///   first, one line per [`crate::TraceEvent`].
    ///
    /// Non-GET methods on these resources get 4.05 Method Not Allowed.
    pub fn dispatch_observability(&self, host: &FcHost, request: &Message) -> Option<Message> {
        let path = normalize(&request.path());
        let tenant_scoped = path.strip_prefix("metrics/tenant/");
        if path != "metrics" && path != "trace" && tenant_scoped.is_none() {
            return None;
        }
        if request.code != Code::Get {
            return Some(Message::response_to(request, Code::MethodNotAllowed));
        }
        let mut resp = Message::response_to(request, Code::Content);
        resp.set_content_format(content_format::TEXT_PLAIN);
        match path.as_str() {
            "metrics" => {
                let snap = host.metrics_snapshot();
                let binary = request
                    .options
                    .iter()
                    .any(|(n, v)| *n == option::URI_QUERY && v == b"bin");
                if binary {
                    resp.payload = snap.encode();
                    resp.set_content_format(content_format::OCTET_STREAM);
                } else {
                    resp.payload = snap.to_string().into_bytes();
                }
            }
            "trace" => {
                let mut out = String::new();
                for event in host.telemetry().trace_events() {
                    out.push_str(&event.to_string());
                    out.push('\n');
                }
                resp.payload = out.into_bytes();
            }
            _ => {
                let Some(tenant) = tenant_scoped.and_then(|s| s.parse::<TenantId>().ok()) else {
                    return Some(Message::response_to(request, Code::BadRequest));
                };
                let snap = host.metrics_snapshot();
                let Some(t) = snap.tenant(tenant) else {
                    return Some(Message::response_to(request, Code::NotFound));
                };
                resp.payload = format!(
                    "tenant {} executions={} insns={} p50_ns={} p99_ns={}\n",
                    t.tenant,
                    t.executions,
                    t.insns,
                    t.latency.quantile_ns(0.50),
                    t.latency.quantile_ns(0.99)
                )
                .into_bytes();
            }
        }
        Some(resp)
    }

    fn poll_suit_report(updates: &LiveUpdateService, request: &Message) -> Message {
        let scoped = request
            .options
            .iter()
            .find(|(n, _)| *n == option::URI_QUERY)
            .map(|(_, v)| String::from_utf8_lossy(v).into_owned());
        let poll = match scoped {
            Some(query) => match query.parse::<Uuid>() {
                Ok(component) => updates.component_outcome(component),
                Err(_) => return Message::response_to(request, Code::BadRequest),
            },
            None => updates.last_outcome(),
        };
        match poll {
            Some(poll) => {
                let mut resp = Message::response_to(request, Code::Content);
                resp.payload = poll.to_string().into_bytes();
                resp
            }
            None => Message::response_to(request, Code::NotFound),
        }
    }

    fn stage_suit_block(updates: &mut LiveUpdateService, request: &Message) -> Message {
        let name = request
            .options
            .iter()
            .find(|(n, _)| *n == option::URI_QUERY)
            .map(|(_, v)| String::from_utf8_lossy(v).into_owned())
            .unwrap_or_else(|| "default".to_owned());
        let block = request
            .option_uint(option::BLOCK1)
            .and_then(Block::from_uint)
            .unwrap_or(Block {
                num: 0,
                more: false,
                szx: 6,
            });
        let accepted = updates.stage_block(&name, block.offset(), &request.payload, block.num == 0);
        if !accepted {
            // A hole: reject so the client restarts the transfer.
            return Message::response_to(request, Code::BadRequest);
        }
        let mut resp = Message::response_to(
            request,
            if block.more {
                Code::Continue
            } else {
                Code::Changed
            },
        );
        resp.add_option_uint(option::BLOCK1, block.to_uint());
        resp
    }

    fn apply_suit_manifest(
        host: &FcHost,
        updates: &mut LiveUpdateService,
        request: &Message,
    ) -> Message {
        match updates.apply(host, &request.payload) {
            Ok(report) => {
                let mut resp = Message::response_to(request, Code::Changed);
                resp.payload = report.to_string().into_bytes();
                resp
            }
            Err(e) => {
                let code = match &e {
                    LiveDeployError::Update(UpdateError::UnknownKeyId { .. })
                    | LiveDeployError::Update(UpdateError::Manifest(_)) => Code::Unauthorized,
                    // 4.29 Too Many Requests (RFC 8516).
                    LiveDeployError::RateLimited { .. } => Code::Other(0x9d),
                    _ => Code::BadRequest,
                };
                let mut resp = Message::response_to(request, code);
                resp.payload = e.to_string().into_bytes();
                resp
            }
        }
    }

    /// Fire-and-forget batch dispatch for load generation: groups the
    /// requests by hook and enqueues each group with one queue
    /// round-trip, without reply channels. Returns the summed
    /// acceptance counts; unrouted requests count as rejected.
    pub fn dispatch_batch_nowait(&self, host: &FcHost, requests: &[Message]) -> BatchAccepted {
        let mut errors: Vec<Option<HostError>> = vec![None; requests.len()];
        let mut total = BatchAccepted::default();
        for (hook, idxs, events) in self.batch_groups(requests, &mut errors) {
            match host.fire_batch(hook, events) {
                Ok(out) => {
                    total.accepted += out.accepted;
                    total.rejected += out.rejected;
                    total.displaced += out.displaced;
                }
                Err(_) => total.rejected += idxs.len(),
            }
        }
        total.rejected += errors.iter().filter(|e| e.is_some()).count();
        total
    }
}

/// Extracts the response PDU from a CoAP hook report: the packet
/// region written by the first execution, trimmed to the combined
/// return value (the formatter convention: r0 = PDU length).
pub fn response_pdu(report: &HookReport) -> Vec<u8> {
    let len = report.combined.unwrap_or(0) as usize;
    report
        .executions
        .first()
        .and_then(|e| e.regions_back.iter().find(|(name, _)| name == "pkt"))
        .map(|(_, bytes)| bytes[..len.min(bytes.len())].to_vec())
        .unwrap_or_default()
}

/// Checks a response PDU is a well-formed 2.05 Content reply.
pub fn is_content_response(pdu: &[u8]) -> bool {
    matches!(Message::decode(pdu), Ok(m) if m.code == Code::Content)
}

fn normalize(path: &str) -> String {
    path.trim_matches('/').to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostConfig;
    use fc_core::contract::ContractOffer;
    use fc_core::deploy::author_update;
    use fc_core::helpers_impl::standard_helper_ids;
    use fc_core::hooks::{Hook, HookKind, HookPolicy};
    use fc_net::block::slice_block;
    use fc_rtos::platform::{Engine, Platform};
    use fc_suit::SigningKey;

    fn suit_host() -> (FcHost, Uuid) {
        let host = FcHost::new(
            Platform::CortexM4,
            Engine::FemtoContainer,
            HostConfig {
                workers: 2,
                ..HostConfig::default()
            },
        );
        let hook = Hook::new("suit-coap-t0", HookKind::SchedSwitch, HookPolicy::First);
        let hook_id = hook.id;
        host.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
        (host, hook_id)
    }

    fn provisioned() -> (LiveUpdateService, SigningKey) {
        let key = SigningKey::from_seed(b"coap-maintainer");
        let mut updates = LiveUpdateService::new();
        updates.provision_tenant(b"tenant-a", key.verifying_key(), 1);
        (updates, key)
    }

    /// Drives the staging endpoint the way a *streaming* sender does:
    /// it does not know the total length, marks every full block
    /// `more = true`, and closes an exact-multiple transfer with a
    /// zero-length terminal block at `offset == len`. The sender
    /// chunks through `slice_block`, which used to return `None` at
    /// that offset and strand the hand-off (the regression this test
    /// pins).
    fn stream_payload(
        front: &CoapFront,
        host: &FcHost,
        updates: &mut LiveUpdateService,
        uri: &str,
        payload: &[u8],
        block_size: usize,
    ) {
        let mut num = 0u32;
        loop {
            let block = Block::with_size(num, false, block_size);
            let (chunk, _) =
                slice_block(payload, block).expect("every offset up to and including len resolves");
            // A short (or empty) chunk is the terminal block.
            let done = chunk.len() < block_size;
            let mut req = Message::request(Code::Post, num as u16, &[]);
            req.set_path("suit/payload");
            req.add_option(option::URI_QUERY, uri.as_bytes().to_vec());
            req.add_option_uint(
                option::BLOCK1,
                Block {
                    num,
                    more: !done,
                    szx: block.szx,
                }
                .to_uint(),
            );
            req.payload = chunk;
            let resp = front
                .dispatch_suit(host, updates, &req)
                .expect("suit path routed");
            assert!(
                resp.code.is_success(),
                "block {num} rejected: {:?}",
                resp.code
            );
            if done {
                return;
            }
            num += 1;
        }
    }

    #[test]
    fn streaming_exact_multiple_staging_round_trips() {
        let (mut host, _) = suit_host();
        let (mut updates, _) = provisioned();
        let front = CoapFront::new();
        // 64 bytes in 32-byte blocks: two full blocks, then the
        // zero-length terminal block at offset == len.
        let payload: Vec<u8> = (0..64u8).collect();
        stream_payload(&front, &host, &mut updates, "img", &payload, 32);
        assert_eq!(updates.staged_payload("img"), Some(&payload[..]));
        // Zero-length payload: a single empty terminal block stages an
        // empty buffer rather than erroring.
        stream_payload(&front, &host, &mut updates, "empty", &[], 32);
        assert_eq!(updates.staged_payload("empty"), Some(&[][..]));
        // A non-multiple payload keeps working (short final block).
        let odd: Vec<u8> = (0..50u8).collect();
        stream_payload(&front, &host, &mut updates, "odd", &odd, 32);
        assert_eq!(updates.staged_payload("odd"), Some(&odd[..]));
        host.shutdown();
    }

    #[test]
    fn suit_endpoints_deploy_live_end_to_end() {
        let (mut host, hook_id) = suit_host();
        let (mut updates, key) = provisioned();
        let front = CoapFront::new();
        let app = fc_core::apps::thread_counter();
        let (envelope, payload) = author_update(&app, hook_id, 1, "app-v1", &key, b"tenant-a");
        stream_payload(&front, &host, &mut updates, "app-v1", &payload, 32);

        let mut req = Message::request(Code::Post, 99, &[1]);
        req.set_path("suit/manifest");
        req.payload = envelope;
        let resp = front
            .dispatch_suit(&host, &mut updates, &req)
            .expect("suit path routed");
        assert_eq!(resp.code, Code::Changed);
        let report = String::from_utf8(resp.payload).unwrap();
        assert!(
            report.contains("deployed"),
            "reply lane carries the report: {report}"
        );
        assert_eq!(updates.accepted_count(), 1);
        assert_eq!(
            updates.staged_payload("app-v1"),
            None,
            "successful deploy drops its staged payload"
        );
        let container = updates.installed_container(hook_id).unwrap();
        let fired = host.fire_sync(hook_id, &[], &[]).unwrap();
        assert_eq!(fired.executions.len(), 1);
        assert_eq!(fired.executions[0].container, container);
        host.shutdown();
    }

    #[test]
    fn suit_manifest_with_bad_signature_gets_401_with_reason() {
        let (mut host, hook_id) = suit_host();
        let (mut updates, _) = provisioned();
        let front = CoapFront::new();
        let attacker = SigningKey::from_seed(b"attacker");
        let (envelope, payload) = author_update(
            &fc_core::apps::thread_counter(),
            hook_id,
            1,
            "evil",
            &attacker,
            b"tenant-a", // claims tenant-a's key id
        );
        updates.stage_payload("evil", &payload);
        let mut req = Message::request(Code::Post, 7, &[1]);
        req.set_path("suit/manifest");
        req.payload = envelope;
        let resp = front
            .dispatch_suit(&host, &mut updates, &req)
            .expect("suit path routed");
        assert_eq!(resp.code, Code::Unauthorized);
        assert!(!resp.payload.is_empty(), "rejection reason travels back");
        assert_eq!(updates.installed_container(hook_id), None);
        // Non-SUIT paths fall through to tenant routing.
        let mut other = Message::request(Code::Get, 8, &[]);
        other.set_path("t0/temp");
        assert!(front.dispatch_suit(&host, &mut updates, &other).is_none());
        host.shutdown();
    }

    /// `/suit/report` polls the last deploy outcome: 4.04 before any
    /// deploy, the accepted report (with sequence + serial) after a
    /// good one, the rejection reason after a bad one — the recovery
    /// path for a client whose in-band manifest response was lost.
    #[test]
    fn suit_report_polls_last_deploy_outcome() {
        let (mut host, hook_id) = suit_host();
        let (mut updates, key) = provisioned();
        let front = CoapFront::new();
        let mut poll = Message::request(Code::Get, 50, &[2]);
        poll.set_path("suit/report");
        let resp = front
            .dispatch_suit(&host, &mut updates, &poll)
            .expect("suit path routed");
        assert_eq!(resp.code, Code::NotFound, "no deploy attempted yet");

        let app = fc_core::apps::thread_counter();
        let (envelope, payload) = author_update(&app, hook_id, 1, "r-v1", &key, b"tenant-a");
        updates.stage_payload("r-v1", &payload);
        let mut req = Message::request(Code::Post, 51, &[2]);
        req.set_path("suit/manifest");
        req.payload = envelope;
        front.dispatch_suit(&host, &mut updates, &req).unwrap();
        let resp = front.dispatch_suit(&host, &mut updates, &poll).unwrap();
        assert_eq!(resp.code, Code::Content);
        let body = String::from_utf8(resp.payload).unwrap();
        assert!(
            body.contains("#1 accepted") && body.contains("deployed"),
            "poll carries the accepted report: {body}"
        );

        // A rejected deploy of ANOTHER component overwrites the global
        // poll state with its reason and a fresh serial...
        let other = Hook::new("suit-coap-other", HookKind::SchedSwitch, HookPolicy::First);
        let other_id = other.id;
        host.register_hook(other, ContractOffer::helpers(standard_helper_ids()));
        let (envelope, _) = author_update(&app, other_id, 1, "r-other", &key, b"tenant-a");
        let mut req = Message::request(Code::Post, 52, &[2]);
        req.set_path("suit/manifest");
        req.payload = envelope;
        front.dispatch_suit(&host, &mut updates, &req).unwrap();
        let resp = front.dispatch_suit(&host, &mut updates, &poll).unwrap();
        let body = String::from_utf8(resp.payload).unwrap();
        assert!(
            body.contains("#2 rejected") && body.contains("not staged"),
            "global poll carries the rejection reason: {body}"
        );
        // ...but a component-scoped poll is tenant-safe: the first
        // deploy's verdict survives under its own component.
        let mut scoped = poll.clone();
        scoped.add_option(option::URI_QUERY, hook_id.to_string().into_bytes());
        let resp = front.dispatch_suit(&host, &mut updates, &scoped).unwrap();
        assert_eq!(resp.code, Code::Content);
        let body = String::from_utf8(resp.payload).unwrap();
        assert!(
            body.contains("#1 accepted") && body.contains(&hook_id.to_string()),
            "component poll keeps its own verdict: {body}"
        );
        let mut scoped = poll.clone();
        scoped.add_option(option::URI_QUERY, other_id.to_string().into_bytes());
        let resp = front.dispatch_suit(&host, &mut updates, &scoped).unwrap();
        let body = String::from_utf8(resp.payload).unwrap();
        assert!(body.contains("#2 rejected"), "{body}");
        // A malformed component query is a 4.00, not a panic.
        let mut bad = poll.clone();
        bad.add_option(option::URI_QUERY, b"not-a-uuid".to_vec());
        let resp = front.dispatch_suit(&host, &mut updates, &bad).unwrap();
        assert_eq!(resp.code, Code::BadRequest);
        host.shutdown();
    }

    /// The deploy token bucket refills on the host's **virtual** clock:
    /// deterministic, and advanced by whoever drives the simulation.
    #[test]
    fn deploy_rate_limit_refills_on_virtual_time() {
        let (mut host, hook_id) = suit_host();
        let (mut updates, key) = provisioned();
        updates.limit_tenant_rate(1, 1, 1.0); // 1-deploy burst, 1 token/s
        let front = CoapFront::new();
        let app = fc_core::apps::thread_counter();
        let submit = |updates: &mut LiveUpdateService, host: &FcHost, version: u64| {
            let uri = format!("rf-v{version}");
            let (envelope, payload) =
                author_update(&app, hook_id, version, &uri, &key, b"tenant-a");
            updates.stage_payload(&uri, &payload);
            let mut req = Message::request(Code::Post, version as u16, &[5]);
            req.set_path("suit/manifest");
            req.payload = envelope;
            front.dispatch_suit(host, updates, &req).unwrap()
        };
        assert_eq!(submit(&mut updates, &host, 1).code, Code::Changed);
        assert_eq!(
            submit(&mut updates, &host, 2).code,
            Code::Other(0x9d),
            "burst spent, clock unmoved"
        );
        // Two virtual seconds refill the (capacity-capped) bucket.
        host.env().set_now_us(2_000_000);
        assert_eq!(submit(&mut updates, &host, 2).code, Code::Changed);
        assert_eq!(updates.accepted_count(), 2);
        host.shutdown();
    }

    /// Per-tenant deploy rate limiting: once the token bucket drains,
    /// further manifests come back 4.29 with a distinct reason, the
    /// refusal is counted, and a manual credit re-opens the lane.
    #[test]
    fn deploy_rate_limit_rejects_with_distinct_reason() {
        let (mut host, hook_id) = suit_host();
        let (mut updates, key) = provisioned();
        updates.limit_tenant_rate(1, 2, 0.0); // 2-deploy burst, no refill
        let front = CoapFront::new();
        let app = fc_core::apps::thread_counter();
        let submit = |updates: &mut LiveUpdateService, version: u64| {
            let uri = format!("rl-v{version}");
            let (envelope, payload) =
                author_update(&app, hook_id, version, &uri, &key, b"tenant-a");
            updates.stage_payload(&uri, &payload);
            let mut req = Message::request(Code::Post, version as u16, &[3]);
            req.set_path("suit/manifest");
            req.payload = envelope;
            front.dispatch_suit(&host, updates, &req).unwrap()
        };
        assert_eq!(submit(&mut updates, 1).code, Code::Changed);
        assert_eq!(submit(&mut updates, 2).code, Code::Changed);
        let throttled = submit(&mut updates, 3);
        assert_eq!(throttled.code, Code::Other(0x9d), "4.29 Too Many Requests");
        let reason = String::from_utf8(throttled.payload).unwrap();
        assert!(reason.contains("rate limit"), "distinct reason: {reason}");
        assert_eq!(updates.rate_limited_count(), 1);
        assert_eq!(
            host.metrics_snapshot()
                .counter(crate::CounterId::DeploysRateLimited),
            1
        );
        // The refusal burned neither the sequence nor the staged
        // payload: a credited retry of the SAME manifest lands.
        updates.credit_tenant(1, 1);
        let uri = "rl-v3";
        assert!(updates.staged_payload(uri).is_some(), "payload survived");
        let (envelope, _) = author_update(&app, hook_id, 3, uri, &key, b"tenant-a");
        let mut req = Message::request(Code::Post, 99, &[3]);
        req.set_path("suit/manifest");
        req.payload = envelope;
        let resp = front.dispatch_suit(&host, &mut updates, &req).unwrap();
        assert_eq!(resp.code, Code::Changed, "credited retry lands");
        assert_eq!(updates.accepted_count(), 3);
        host.shutdown();
    }

    /// A rejected deploy's staged payload must stay LRU-recent: the
    /// retry contract says the refusal keeps the payload staged, so
    /// upload churn from other transfers must evict *them*, not the
    /// payload whose tenant is waiting out a rate limit.
    #[test]
    fn rejected_deploy_keeps_its_payload_recent() {
        let (mut host, hook_id) = suit_host();
        let (mut updates, key) = provisioned();
        updates = updates.with_staging_capacity(2);
        updates.limit_tenant_rate(1, 1, 0.0); // 1-deploy burst, no refill
        let app = fc_core::apps::thread_counter();
        // v1 spends the only token.
        let (envelope, payload) = author_update(&app, hook_id, 1, "lru-v1", &key, b"tenant-a");
        updates.stage_payload("lru-v1", &payload);
        updates.apply(&host, &envelope).unwrap();
        // v2 staged first, a competitor transfer after it — then the
        // rate-limited apply must refresh v2's recency.
        let (envelope, payload) = author_update(&app, hook_id, 2, "lru-v2", &key, b"tenant-a");
        updates.stage_payload("lru-v2", &payload);
        assert!(updates.stage_block("competitor-a", 0, &[1; 8], true));
        assert!(matches!(
            updates.apply(&host, &envelope),
            Err(LiveDeployError::RateLimited { tenant: 1 })
        ));
        // The next transfer evicts the competitor, NOT the payload the
        // throttled tenant is about to retry with.
        assert!(updates.stage_block("competitor-b", 0, &[2; 8], true));
        assert!(updates.staged_payload("lru-v2").is_some());
        assert_eq!(updates.staged_payload("competitor-a"), None);
        updates.credit_tenant(1, 1);
        let report = updates.apply(&host, &envelope).unwrap();
        assert_eq!(report.sequence, 2, "credited retry lands without re-upload");
        host.shutdown();
    }

    /// Abandoned Block1 transfers are evicted once the bounded staging
    /// area fills — they no longer linger until an explicit `unstage` —
    /// while an active upload survives, completes and deploys.
    #[test]
    fn abandoned_block1_transfers_are_evicted() {
        let (mut host, hook_id) = suit_host();
        let (mut updates, key) = provisioned();
        updates = updates.with_staging_capacity(2);
        let front = CoapFront::new();
        let stage_first_block = |updates: &mut LiveUpdateService, uri: &str| {
            let mut req = Message::request(Code::Post, 1, &[4]);
            req.set_path("suit/payload");
            req.add_option(option::URI_QUERY, uri.as_bytes().to_vec());
            req.add_option_uint(
                option::BLOCK1,
                Block {
                    num: 0,
                    more: true,
                    szx: 1,
                }
                .to_uint(),
            );
            req.payload = vec![0xab; 32];
            front.dispatch_suit(&host, updates, &req).unwrap()
        };
        // The active transfer starts first, then a stream of abandoned
        // one-block uploads churns the bounded area.
        let app = fc_core::apps::thread_counter();
        let (envelope, payload) = author_update(&app, hook_id, 1, "live", &key, b"tenant-a");
        let mut off = 0usize;
        let stage_live = |updates: &mut LiveUpdateService, off: &mut usize| {
            let end = (*off + 16).min(payload.len());
            assert!(updates.stage_block("live", *off, &payload[*off..end], *off == 0));
            *off = end;
        };
        stage_live(&mut updates, &mut off);
        for i in 0..4 {
            // Keep the active transfer recently-touched, as a real
            // interleaved upload would.
            stage_live(&mut updates, &mut off);
            assert!(stage_first_block(&mut updates, &format!("abandoned-{i}"))
                .code
                .is_success());
        }
        assert!(
            updates.staging_evicted_count() >= 2,
            "abandoned transfers were evicted, not hoarded"
        );
        assert_eq!(
            updates.staged_payload("abandoned-0"),
            None,
            "the stalest abandoned upload is gone"
        );
        // The active transfer completes and deploys.
        while off < payload.len() {
            stage_live(&mut updates, &mut off);
        }
        let mut req = Message::request(Code::Post, 9, &[4]);
        req.set_path("suit/manifest");
        req.payload = envelope;
        let resp = front.dispatch_suit(&host, &mut updates, &req).unwrap();
        assert_eq!(resp.code, Code::Changed, "active transfer deployed");
        host.shutdown();
    }

    /// `/metrics` round-trips the snapshot (text and binary), the
    /// tenant-scoped resource serves one row, `/trace` dumps spans,
    /// and non-GET methods are refused — the in-process half of the
    /// fleet scrape path.
    #[test]
    fn observability_resources_serve_metrics_and_trace() {
        use crate::telemetry::{CounterId, MetricsSnapshot};
        let (mut host, hook_id) = suit_host();
        let app = fc_core::apps::thread_counter();
        let c = host
            .install(
                "obs",
                7,
                &app.to_bytes(),
                fc_core::deploy::contract_request_for(&app),
            )
            .unwrap();
        host.attach(c, hook_id).unwrap();
        for _ in 0..10 {
            host.fire_sync(hook_id, &[], &[]).unwrap();
        }
        let front = CoapFront::new();
        let get = |path: &str, query: Option<&[u8]>| {
            let mut req = Message::request(Code::Get, 1, &[9]);
            req.set_path(path);
            if let Some(q) = query {
                req.add_option(option::URI_QUERY, q.to_vec());
            }
            front.dispatch_observability(&host, &req)
        };
        // Text rendering by default.
        let resp = get("metrics", None).expect("metrics routed");
        assert_eq!(resp.code, Code::Content);
        assert_eq!(resp.content_format(), Some(content_format::TEXT_PLAIN));
        let text = String::from_utf8(resp.payload).unwrap();
        assert!(text.contains("counter dispatched 10"), "{text}");
        assert!(text.contains("tenant 7 "), "{text}");
        // Binary encoding decodes losslessly and reconciles with the
        // host ledger.
        let resp = get("metrics", Some(b"bin")).unwrap();
        assert_eq!(resp.content_format(), Some(content_format::OCTET_STREAM));
        let snap = MetricsSnapshot::decode(&resp.payload).unwrap();
        assert_eq!(
            snap.counter(CounterId::Dispatched),
            host.telemetry().dispatched()
        );
        assert_eq!(snap.tenant(7).unwrap().executions, 10);
        // Tenant-scoped resource.
        let resp = get("metrics/tenant/7", None).unwrap();
        assert_eq!(resp.code, Code::Content);
        let row = String::from_utf8(resp.payload).unwrap();
        assert!(row.starts_with("tenant 7 executions=10"), "{row}");
        assert_eq!(get("metrics/tenant/99", None).unwrap().code, Code::NotFound);
        assert_eq!(
            get("metrics/tenant/nope", None).unwrap().code,
            Code::BadRequest
        );
        // Trace ring dumps enqueue→drain→exec→reply spans.
        let resp = get("trace", None).unwrap();
        let trace = String::from_utf8(resp.payload).unwrap();
        assert!(trace.contains("enqueue"), "{trace}");
        assert!(trace.contains("exec"), "{trace}");
        // Non-observability paths fall through; non-GET is refused.
        let mut other = Message::request(Code::Get, 2, &[9]);
        other.set_path("t0/temp");
        assert!(front.dispatch_observability(&host, &other).is_none());
        let mut post = Message::request(Code::Post, 3, &[9]);
        post.set_path("metrics");
        assert_eq!(
            front.dispatch_observability(&host, &post).unwrap().code,
            Code::MethodNotAllowed
        );
        host.shutdown();
    }

    #[test]
    fn routes_normalise_leading_slash() {
        let mut front = CoapFront::new();
        let hook = Uuid::from_name("test", "h");
        front.add_route("/t0/temp", hook);
        assert_eq!(front.hook_for("t0/temp"), Some(hook));
        assert_eq!(front.hook_for("/t0/temp/"), Some(hook));
        assert_eq!(front.hook_for("t1/temp"), None);
    }

    #[test]
    fn unrouted_request_is_rejected() {
        let front = CoapFront::new();
        let mut req = Message::request(Code::Get, 1, &[]);
        req.set_path("nope");
        assert!(matches!(
            front.request_event(&req),
            Err(HostError::UnknownHook(_))
        ));
    }
}
