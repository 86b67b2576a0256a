#include "cluster/params.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace hyp::cluster {

// ---------------------------------------------------------------------------
// FaultProfile grammar (docs/FAULTS.md)
//
//   profile   := token (',' token)*            (empty string = off)
//   token     := rate | reorder | window | crash | partition | linkdrop
//              | tuning
//   rate      := ('drop'|'dup'|'corrupt') FLOAT '%'
//   reorder   := 'reorder' FLOAT ('us'|'ms')
//   window    := ('stall'|'blackout') INT '@' FLOAT ('us'|'ms')
//                                       '+' FLOAT ('us'|'ms')
//   crash     := 'crash' INT '@' FLOAT ('us'|'ms') '+' FLOAT ('us'|'ms')
//   partition := 'partition@' FLOAT ('us'|'ms') '+' FLOAT ('us'|'ms')
//                ':' group '|' group          group := INT ('.' INT)*
//   linkdrop  := 'linkdrop=' INT '>' INT ':' FLOAT '%'
//   tuning    := 'seed=' INT | 'rto=' FLOAT ('us'|'ms') | 'replicas=' INT
//
// The retry budget and the failure-detector timing are constants
// (kMaxRetransmits, kRtoBackoff, kHeartbeatInterval, kSuspectAfter,
// kConfirmAfter in params.hpp), not tokens.
//
// Rejections are CLI errors: a diagnostic on stderr citing the grammar and
// exit(2), never a mid-run abort — the profile is fully validated (including
// the crash-schedule semantics the HA subsystem needs) before any simulation
// state exists.

namespace {

[[noreturn]] void bad_profile(const std::string& spec, const std::string& token,
                              const std::string& why) {
  std::fprintf(stderr,
               "malformed --fault-profile '%s' at token '%s': %s\n"
               "  grammar: drop2%%,dup1%%,corrupt0.5%%,reorder5us,stall1@300us+200us,"
               "blackout0@1ms+500us,crash2@1ms+800us,partition@2ms+1ms:0.1|2.3,"
               "linkdrop=0>2:25%%,seed=N,rto=100us,replicas=K\n",
               spec.c_str(), token.c_str(), why.c_str());
  std::exit(2);
}

// Parses "<float><us|ms>" starting at `s`; panics via bad_profile on junk.
Time parse_duration(const std::string& spec, const std::string& token, const char* s,
                    const char** rest) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || v < 0) bad_profile(spec, token, "expected a duration");
  Time unit;
  if (end[0] == 'u' && end[1] == 's') {
    unit = kMicrosecond;
    end += 2;
  } else if (end[0] == 'm' && end[1] == 's') {
    unit = kMillisecond;
    end += 2;
  } else {
    bad_profile(spec, token, "duration needs a us/ms suffix");
  }
  if (rest != nullptr) *rest = end;
  return static_cast<Time>(v * static_cast<double>(unit) + 0.5);
}

// Parses "<float>%" into parts-per-million.
std::uint32_t parse_percent_ppm(const std::string& spec, const std::string& token,
                                const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '%' || end[1] != '\0' || v < 0 || v > 100) {
    bad_profile(spec, token, "expected a percentage like 2% or 0.5%");
  }
  return static_cast<std::uint32_t>(v * 10000.0 + 0.5);
}

bool starts_with(const std::string& s, const char* prefix, std::size_t* len) {
  std::size_t i = 0;
  while (prefix[i] != '\0') {
    if (i >= s.size() || s[i] != prefix[i]) return false;
    ++i;
  }
  *len = i;
  return true;
}

}  // namespace

FaultProfile FaultProfile::parse(const std::string& spec) {
  FaultProfile p;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (token.empty()) continue;

    std::size_t n = 0;
    char* end = nullptr;
    if (starts_with(token, "seed=", &n)) {
      p.seed = std::strtoull(token.c_str() + n, &end, 10);
      if (*end != '\0') bad_profile(spec, token, "seed wants an integer");
    } else if (starts_with(token, "rto=", &n)) {
      const char* rest = nullptr;
      p.rto_initial = parse_duration(spec, token, token.c_str() + n, &rest);
      if (*rest != '\0') bad_profile(spec, token, "trailing junk");
    } else if (starts_with(token, "replicas=", &n)) {
      p.replicas = static_cast<std::uint32_t>(std::strtoul(token.c_str() + n, &end, 10));
      if (*end != '\0' || p.replicas == 0) bad_profile(spec, token, "replicas wants >= 1");
    } else if (starts_with(token, "crash", &n)) {
      FaultWindow w;
      w.node = static_cast<NodeId>(std::strtol(token.c_str() + n, &end, 10));
      if (end == token.c_str() + n || *end != '@' || w.node < 0) {
        bad_profile(spec, token, "expected <node>@<start><us|ms>+<dur><us|ms>");
      }
      const char* rest = nullptr;
      w.start = parse_duration(spec, token, end + 1, &rest);
      if (*rest != '+') bad_profile(spec, token, "expected '+<dur>' after the window start");
      w.duration = parse_duration(spec, token, rest + 1, &rest);
      if (*rest != '\0' || w.duration <= 0) bad_profile(spec, token, "bad window duration");
      if (w.start <= 0) {
        bad_profile(spec, token, "crash window needs a positive start and duration");
      }
      p.crashes.push_back(w);
    } else if (starts_with(token, "partition@", &n)) {
      PartitionWindow w;
      const char* rest = nullptr;
      w.start = parse_duration(spec, token, token.c_str() + n, &rest);
      if (*rest != '+') bad_profile(spec, token, "expected '+<dur>' after the window start");
      w.duration = parse_duration(spec, token, rest + 1, &rest);
      if (*rest != ':' || w.duration <= 0) {
        bad_profile(spec, token, "expected ':<group>|<group>' after the window");
      }
      if (w.start <= 0) {
        bad_profile(spec, token, "partition window needs a positive start and duration");
      }
      const char* s = rest + 1;
      bool side_b = false;
      while (true) {
        const long v = std::strtol(s, &end, 10);
        if (end == s || v < 0) {
          bad_profile(spec, token, "partition groups want node ids like 0.1|2.3");
        }
        (side_b ? w.group_b : w.group_a).push_back(static_cast<NodeId>(v));
        s = end;
        if (*s == '.') {
          ++s;
          continue;
        }
        if (*s == '|') {
          if (side_b) bad_profile(spec, token, "exactly two groups, separated by one '|'");
          side_b = true;
          ++s;
          continue;
        }
        if (*s == '\0') break;
        bad_profile(spec, token, "trailing junk in partition groups");
      }
      if (!side_b || w.group_a.empty() || w.group_b.empty()) {
        bad_profile(spec, token, "both partition groups need at least one node");
      }
      std::vector<NodeId> all(w.group_a);
      all.insert(all.end(), w.group_b.begin(), w.group_b.end());
      for (std::size_t i = 0; i < all.size(); ++i) {
        for (std::size_t j = i + 1; j < all.size(); ++j) {
          if (all[i] == all[j]) {
            bad_profile(spec, token,
                        "a node may appear in at most one partition group, once");
          }
        }
      }
      p.partitions.push_back(w);
    } else if (starts_with(token, "linkdrop=", &n)) {
      LinkDrop l;
      l.from = static_cast<NodeId>(std::strtol(token.c_str() + n, &end, 10));
      if (end == token.c_str() + n || *end != '>' || l.from < 0) {
        bad_profile(spec, token, "expected <from>><to>:<pct>%");
      }
      const char* s = end + 1;
      l.to = static_cast<NodeId>(std::strtol(s, &end, 10));
      if (end == s || *end != ':' || l.to < 0) {
        bad_profile(spec, token, "expected <from>><to>:<pct>%");
      }
      if (l.from == l.to) bad_profile(spec, token, "linkdrop wants two distinct nodes");
      l.ppm = parse_percent_ppm(spec, token, end + 1);
      p.linkdrops.push_back(l);
    } else if (starts_with(token, "drop", &n)) {
      p.drop_ppm = parse_percent_ppm(spec, token, token.c_str() + n);
    } else if (starts_with(token, "dup", &n)) {
      p.dup_ppm = parse_percent_ppm(spec, token, token.c_str() + n);
    } else if (starts_with(token, "corrupt", &n)) {
      p.corrupt_ppm = parse_percent_ppm(spec, token, token.c_str() + n);
    } else if (starts_with(token, "reorder", &n)) {
      const char* rest = nullptr;
      p.reorder_max = parse_duration(spec, token, token.c_str() + n, &rest);
      if (*rest != '\0') bad_profile(spec, token, "trailing junk");
    } else if (starts_with(token, "stall", &n) || starts_with(token, "blackout", &n)) {
      FaultWindow w;
      w.blackout = token[0] == 'b';
      w.node = static_cast<NodeId>(std::strtol(token.c_str() + n, &end, 10));
      if (end == token.c_str() + n || *end != '@' || w.node < 0) {
        bad_profile(spec, token, "expected <node>@<start><us|ms>+<dur><us|ms>");
      }
      const char* rest = nullptr;
      w.start = parse_duration(spec, token, end + 1, &rest);
      if (*rest != '+') bad_profile(spec, token, "expected '+<dur>' after the window start");
      w.duration = parse_duration(spec, token, rest + 1, &rest);
      if (*rest != '\0' || w.duration <= 0) bad_profile(spec, token, "bad window duration");
      p.windows.push_back(w);
    } else if (token == "off") {
      // The display form of an empty profile (to_string of a default
      // profile), accepted so every to_string() output parses back.
    } else {
      bad_profile(spec, token, "unknown token");
    }
  }

  // --- cross-token semantic validation (still parse time: CLI error, not a
  // mid-run abort). The crash schedule is what the HA subsystem will execute
  // verbatim, so everything it used to HYP_CHECK in HaManager::start() is
  // rejected here instead.
  if (!p.crashes.empty()) {
    for (std::size_t i = 0; i < p.crashes.size(); ++i) {
      for (std::size_t j = i + 1; j < p.crashes.size(); ++j) {
        const FaultWindow& a = p.crashes[i];
        const FaultWindow& b = p.crashes[j];
        if (a.node == b.node && a.start < b.end() && b.start < a.end()) {
          bad_profile(spec, "crash" + std::to_string(a.node),
                      "a node's crash windows must not overlap each other");
        }
      }
    }
  }
  return p;
}

std::string FaultProfile::to_string() const {
  auto pct = [](std::uint32_t ppm) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g%%", static_cast<double>(ppm) / 10000.0);
    return std::string(buf);
  };
  auto dur = [](Time t) {
    char buf[48];
    if (t % kMillisecond == 0 && t >= kMillisecond) {
      std::snprintf(buf, sizeof(buf), "%llums",
                    static_cast<unsigned long long>(t / kMillisecond));
    } else if (t % kMicrosecond == 0) {
      // Exact integer microseconds: %g would lose precision on large values,
      // breaking the to_string -> parse round-trip.
      std::snprintf(buf, sizeof(buf), "%lluus",
                    static_cast<unsigned long long>(t / kMicrosecond));
    } else {
      std::snprintf(buf, sizeof(buf), "%gus",
                    static_cast<double>(t) / static_cast<double>(kMicrosecond));
    }
    return std::string(buf);
  };
  std::string out;
  auto add = [&out](const std::string& tok) {
    if (!out.empty()) out += ',';
    out += tok;
  };
  if (drop_ppm != 0) add("drop" + pct(drop_ppm));
  if (dup_ppm != 0) add("dup" + pct(dup_ppm));
  if (corrupt_ppm != 0) add("corrupt" + pct(corrupt_ppm));
  if (reorder_max != 0) add("reorder" + dur(reorder_max));
  for (const FaultWindow& w : windows) {
    add((w.blackout ? "blackout" : "stall") + std::to_string(w.node) + "@" + dur(w.start) +
        "+" + dur(w.duration));
  }
  for (const FaultWindow& c : crashes) {
    add("crash" + std::to_string(c.node) + "@" + dur(c.start) + "+" + dur(c.duration));
  }
  for (const PartitionWindow& w : partitions) {
    std::string tok = "partition@" + dur(w.start) + "+" + dur(w.duration) + ":";
    for (std::size_t i = 0; i < w.group_a.size(); ++i) {
      if (i != 0) tok += '.';
      tok += std::to_string(w.group_a[i]);
    }
    tok += '|';
    for (std::size_t i = 0; i < w.group_b.size(); ++i) {
      if (i != 0) tok += '.';
      tok += std::to_string(w.group_b[i]);
    }
    add(tok);
  }
  for (const LinkDrop& l : linkdrops) {
    add("linkdrop=" + std::to_string(l.from) + ">" + std::to_string(l.to) + ":" +
        pct(l.ppm));
  }
  if (seed != 0) add("seed=" + std::to_string(seed));
  // Emit every field that differs from a default-constructed profile, so
  // parse(to_string()) reproduces the profile exactly for every token type
  // (pinned by fault_test's round-trip cases). The defaults stay implicit:
  // "off" round-trips to a default profile.
  const FaultProfile defaults;
  if (rto_initial != defaults.rto_initial || lossy()) add("rto=" + dur(rto_initial));
  if (replicas != 1) add("replicas=" + std::to_string(replicas));
  return out.empty() ? "off" : out;
}

ClusterParams ClusterParams::myrinet200() {
  ClusterParams p;
  p.name = "myri200";
  p.default_nodes = 12;
  p.net.latency = microseconds(10);
  p.net.bandwidth_bytes_per_sec = 125e6;  // BIP/Myrinet ~125 MB/s
  p.net.send_overhead = microseconds(2);
  p.net.recv_overhead = microseconds(3);
  p.cpu.hz = 200e6;
  p.cpu.page_fault_cost = microseconds(22);  // paper §4.2
  p.cpu.mprotect_page_cost = microseconds(6);
  p.cpu.mprotect_region_cost = microseconds(8);
  p.cpu.check_cycles = 10;
  return p;
}

ClusterParams ClusterParams::sci450() {
  ClusterParams p;
  p.name = "sci450";
  p.default_nodes = 6;
  p.net.latency = microseconds(4);
  p.net.bandwidth_bytes_per_sec = 80e6;  // SISCI/SCI ~80 MB/s
  p.net.send_overhead = microseconds(1);
  p.net.recv_overhead = microseconds(1.5);
  p.cpu.hz = 450e6;
  p.cpu.page_fault_cost = microseconds(12);  // paper §4.2
  p.cpu.mprotect_page_cost = microseconds(3);
  p.cpu.mprotect_region_cost = microseconds(4);
  // The PII's deeper, better-predicted pipeline overlaps the in-line check
  // with neighbouring code (fewer effective cycles), while real application
  // code gains less than the 2.25x clock ratio over the PPro (memory-bound);
  // together these yield the paper's smaller SCI-side improvements (§4.3).
  p.cpu.check_cycles = 5;
  p.cpu.app_cycle_scale = 1.35;
  return p;
}

ClusterParams ClusterParams::by_name(const std::string& name) {
  if (name == "myri200") return myrinet200();
  if (name == "sci450") return sci450();
  HYP_PANIC("unknown cluster preset: " + name + " (expected myri200 or sci450)");
}

}  // namespace hyp::cluster
