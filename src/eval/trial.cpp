#include "eval/trial.h"

#include <exception>
#include <sstream>
#include <utility>

#include "eval/env_pool.h"
#include "util/selfcheck.h"

namespace caya {

std::string_view to_string(TrialErrorKind kind) noexcept {
  switch (kind) {
    case TrialErrorKind::kNone: return "none";
    case TrialErrorKind::kTimeout: return "timeout";
    case TrialErrorKind::kInvariantViolation: return "invariant-violation";
    case TrialErrorKind::kCodecError: return "codec-error";
    case TrialErrorKind::kInjectedFault: return "injected-fault";
  }
  return "unknown";
}

bool is_retryable(TrialErrorKind kind) noexcept {
  return kind == TrialErrorKind::kCodecError ||
         kind == TrialErrorKind::kInjectedFault;
}

namespace {

/// The A record every DNS trial's server answers with.
constexpr Ipv4Address kDnsAnswer(198, 51, 100, 7);

}  // namespace

Environment::Environment(Config config)
    : config_(std::move(config)),
      rng_(config_.seed),
      net_(std::make_unique<Network>(loop_, config_.net, rng_.fork())),
      censors_(config_.country, rng_, config_.china_architecture,
               config_.gfw_regime, config_.censor_faults) {
  server_port_ = config_.server_port != 0 ? config_.server_port
                                          : default_port(config_.protocol);
  if (config_.carrier != CarrierNetwork::kWifi) {
    carrier_ = std::make_unique<CarrierMiddlebox>(config_.carrier);
    net_->add_middlebox(carrier_.get());
  }
  for (Middlebox* box : censors_.boxes()) net_->add_middlebox(box);
}

void Environment::reset(std::uint64_t seed) {
  // Replays the constructor's RNG stream exactly: seed the root, fork once
  // for the Network, then let the censors take their fork (if any).
  config_.seed = seed;
  rng_ = Rng(seed);
  loop_.reset();
  net_->reset(rng_.fork());
  if (carrier_) carrier_->reinit();
  censors_.reset(rng_);
  next_client_port_ = 40000;
  next_isn_ = 11000;
}

bool Environment::run_bounded(Time deadline, std::size_t max_events) {
  const Time deadline_abs = loop_.now() + deadline;
  std::size_t ran = 0;
  while (!loop_.empty() && ran < max_events &&
         loop_.next_at() <= deadline_abs) {
    (void)loop_.run_one();
    ++ran;
  }
  // Anything still pending was cut off by the deadline or the event cap: the
  // connection never reached quiescence (dropped FIN, retransmit storm, ...).
  return !loop_.empty();
}

TrialResult Environment::run_connection(const ConnectionOptions& options) {
  const CountryMessages& messages = country_messages(config_.country);
  const std::size_t censored_before = censors_.censored_total();

  net_->trace().clear();
  // Only pay for trace recording (a packet copy per hop) when the caller
  // actually wants the trace back.
  net_->trace().set_enabled(options.record_trace);
  if (selfcheck_enabled()) net_->selfcheck_begin_connection();

  // Engines (the Geneva shims) for this connection. Stack-resident: they
  // live exactly as long as the connection, so there is nothing to heap.
  std::optional<Engine> server_engine;
  std::optional<Engine> client_engine;
  if (options.server_strategy) {
    server_engine.emplace(&*options.server_strategy, rng_.fork());
    net_->set_server_processor(&*server_engine);
  } else {
    net_->set_server_processor(nullptr);
  }
  if (options.client_processor != nullptr) {
    net_->set_client_processor(options.client_processor);
  } else if (options.client_strategy) {
    client_engine.emplace(&*options.client_strategy, rng_.fork());
    net_->set_client_processor(&*client_engine);
  } else {
    net_->set_client_processor(nullptr);
  }

  ClientAppConfig app_config;
  app_config.client_addr = eval_client_addr();
  app_config.server_addr = eval_server_addr();
  app_config.client_port = next_client_port_++;
  app_config.server_port = server_port_;
  app_config.os = options.client_os;
  app_config.isn = next_isn_ += 7001;

  TrialResult result;

  auto finish = [&](bool success, bool reset) {
    result.success = success;
    result.client_reset = reset;
    result.censor_events = censors_.censored_total() - censored_before;
    if (server_engine) {
      result.server_amplification = server_engine->amplification();
    }
    if (options.record_trace) result.trace = net_->trace();
    if (selfcheck_enabled()) {
      net_->selfcheck_end_connection(result.timed_out);
    }
    loop_.clear();  // no stale callbacks may outlive this connection's apps
    net_->set_server_processor(nullptr);
    net_->set_client_processor(nullptr);
    net_->set_client(nullptr);
    net_->set_server(nullptr);
  };
  // Attaches the app pair and runs the client out to quiescence or the
  // connection's bounds.
  const auto run = [&](auto& server, auto& client) {
    net_->set_server(&server);
    net_->set_client(&client);
    client.start();
    result.timed_out = run_bounded(options.deadline, options.max_events);
  };
  // The single-connection protocols: the §5 verification hooks go on the
  // client's endpoint, and a torn-down client counts as reset.
  const auto run_tcp = [&](auto& server, auto& client) {
    client.endpoint().set_seq_shift(options.client_data_seq_shift);
    client.endpoint().set_suppress_induced_rst(options.suppress_induced_rst);
    run(server, client);
    finish(client.succeeded(), client.was_reset());
  };

  switch (config_.protocol) {
    case AppProtocol::kHttp: {
      HttpServer server(loop_, *net_, eval_server_addr(), server_port_,
                        messages.http.response);
      HttpClient client(loop_, *net_, app_config, messages.http.request,
                        messages.http.response);
      run_tcp(server, client);
      break;
    }
    case AppProtocol::kHttps: {
      HttpsServer server(loop_, *net_, eval_server_addr(), server_port_,
                         messages.server_hello);
      HttpsClient client(loop_, *net_, app_config, messages.client_hello,
                         messages.server_hello);
      run_tcp(server, client);
      break;
    }
    case AppProtocol::kDnsOverTcp: {
      DnsServer server(loop_, *net_, eval_server_addr(), server_port_,
                       kDnsAnswer);
      DnsClient client(loop_, *net_, app_config, messages.dns, kDnsAnswer);
      // RFC 7766 retries reconnect to the same server; a client that ran
      // out of retries counts as reset.
      client.on_new_attempt = [&server] { server.reopen(); };
      run(server, client);
      finish(client.succeeded(), !client.succeeded());
      break;
    }
    case AppProtocol::kFtp: {
      FtpServer server(loop_, *net_, eval_server_addr(), server_port_);
      FtpClient client(loop_, *net_, app_config, messages.ftp_retr);
      run_tcp(server, client);
      break;
    }
    case AppProtocol::kSmtp: {
      SmtpServer server(loop_, *net_, eval_server_addr(), server_port_);
      SmtpClient client(loop_, *net_, app_config, messages.smtp_rcpt);
      run_tcp(server, client);
      break;
    }
  }
  return result;
}

TrialResult run_trial(Environment::Config env_config,
                      const ConnectionOptions& options) {
  // Draw a warm substrate from the calling worker's pool (or construct one
  // when the pool is cold). The lease shelves the environment for reuse
  // only on clean completion: if run_connection throws, the lease
  // destructor discards the substrate so retries never see poisoned state.
  EnvironmentPool::Lease lease =
      EnvironmentPool::local().acquire(env_config);
  TrialResult result = lease->run_connection(options);
  lease.keep();
  return result;
}

bool SupervisionPolicy::injects_fault(std::size_t trial_index,
                                      std::size_t attempt) const noexcept {
  const std::size_t ordinal = trial_index + 1;  // 1-based, so N means "Nth"
  if (inject_hard_fault_every != 0 &&
      ordinal % inject_hard_fault_every == 0) {
    return true;  // fails every attempt: exhausts the retry budget
  }
  if (inject_soft_fault_every != 0 &&
      ordinal % inject_soft_fault_every == 0) {
    return attempt == 0;  // fails only the first attempt: a retry recovers
  }
  return false;
}

namespace {

std::string trial_context(const Environment::Config& env_config,
                          const ConnectionOptions& options,
                          std::uint64_t seed) {
  std::ostringstream out;
  out << "country=" << to_string(env_config.country)
      << " protocol=" << to_string(env_config.protocol) << " seed=" << seed;
  if (options.server_strategy) {
    out << " strategy=\"" << options.server_strategy->to_string() << '"';
  }
  if (options.client_strategy) {
    out << " client-strategy=\"" << options.client_strategy->to_string()
        << '"';
  }
  return out.str();
}

}  // namespace

SupervisedOutcome run_supervised_trial(const Environment::Config& env_config,
                                       const ConnectionOptions& options,
                                       const SupervisionPolicy& policy,
                                       std::size_t trial_index) {
  SupervisedOutcome outcome;
  const std::size_t max_attempts = kMaxRetries + 1;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    outcome.attempts = attempt + 1;
    Environment::Config attempt_config = env_config;
    attempt_config.seed =
        env_config.seed + attempt * kRetrySeedStride;

    if (policy.injects_fault(trial_index, attempt)) {
      outcome.error = TrialErrorKind::kInjectedFault;
      outcome.detail =
          "injected fault (trial " + std::to_string(trial_index) +
          ", attempt " + std::to_string(attempt) + "): " +
          trial_context(attempt_config, options, attempt_config.seed);
      if (attempt + 1 < max_attempts) continue;
      return outcome;
    }

    try {
      outcome.result = run_trial(attempt_config, options);
      outcome.error = outcome.result.timed_out ? TrialErrorKind::kTimeout
                                               : TrialErrorKind::kNone;
      outcome.detail.clear();
      return outcome;  // completed — timeouts are results, never retried
    } catch (const SelfCheckError& err) {
      outcome.error = TrialErrorKind::kInvariantViolation;
      outcome.detail = std::string(err.what()) + " | " +
                       trial_context(attempt_config, options,
                                     attempt_config.seed);
      return outcome;  // deterministic in (seed, strategy): never retried
    } catch (const std::exception& err) {
      outcome.error = TrialErrorKind::kCodecError;
      outcome.detail = std::string(err.what()) + " | " +
                       trial_context(attempt_config, options,
                                     attempt_config.seed);
      if (attempt + 1 < max_attempts) continue;
      return outcome;
    }
  }
  return outcome;
}

}  // namespace caya
