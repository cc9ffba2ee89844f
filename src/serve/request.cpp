#include "src/serve/request.hpp"

#include <cmath>
#include <map>

#include "src/serve/json.hpp"
#include "src/util/fault_injection.hpp"

namespace mocos::serve {

namespace {

util::Status decode_error(const std::string& what) {
  return util::Status(util::StatusCode::kInvalidConfig, "request: " + what);
}

util::StatusOr<std::uint64_t> as_count(const std::string& key,
                                       const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kNumber)
    return decode_error("`" + key + "` must be a number");
  if (!(v.num >= 0.0) || v.num != std::floor(v.num) || v.num > 1e15)
    return decode_error("`" + key + "` must be a non-negative integer");
  return static_cast<std::uint64_t>(v.num);
}

}  // namespace

util::StatusOr<Request> parse_request(std::string_view line) {
  if (util::fault::fire(util::fault::Site::kServeDecodeFault))
    return decode_error("injected decode fault");
  util::StatusOr<std::map<std::string, JsonValue>> fields =
      parse_flat_object(line);
  if (!fields.ok()) return fields.status();

  Request request;
  for (const auto& [key, value] : *fields) {
    if (key == "id" || key == "config" || key == "cache_key") {
      if (value.kind != JsonValue::Kind::kString)
        return decode_error("`" + key + "` must be a string");
      if (key == "id") request.id = value.str;
      else if (key == "config") request.config_text = value.str;
      else request.cache_key = value.str;
    } else if (key == "deadline_ms") {
      util::StatusOr<std::uint64_t> n = as_count(key, value);
      if (!n.ok()) return n.status();
      request.deadline_ms = *n;
      request.has_deadline = true;
    } else if (key == "warm_start") {
      if (value.kind != JsonValue::Kind::kBool)
        return decode_error("`warm_start` must be a bool");
      request.warm_start = value.boolean;
    } else {
      return decode_error("unknown field `" + key + "`");
    }
  }
  if (request.id.empty()) return decode_error("`id` is required");
  if (request.config_text.empty())
    return decode_error("`config` is required");
  if (request.warm_start && request.cache_key.empty())
    return decode_error("`warm_start` requires a `cache_key`");
  return request;
}

void write_response(const Response& response, std::ostream& out) {
  out << "{\"seq\": " << response.seq << ", \"id\": ";
  write_json_string(response.id, out);
  out << ", \"code\": " << response.code << ", \"status\": ";
  write_json_string(response.status, out);
  if (!response.error.empty()) {
    out << ", \"error\": ";
    write_json_string(response.error, out);
  }
  if (response.has_result) {
    out << ", \"cost\": ";
    write_json_number(response.penalized_cost, out);
    out << ", \"report_cost\": ";
    write_json_number(response.report_cost, out);
    out << ", \"delta_c\": ";
    write_json_number(response.delta_c, out);
    out << ", \"e_bar\": ";
    write_json_number(response.e_bar, out);
    out << ", \"iterations\": " << response.iterations
        << ", \"stop_reason\": ";
    write_json_string(response.stop_reason, out);
    out << ", \"recovery_events\": " << response.recovery_events
        << ", \"warm_started\": "
        << (response.warm_started ? "true" : "false")
        << ", \"cache_full_solves\": " << response.chain.full_solves
        << ", \"cache_exact_hits\": " << response.chain.exact_hits;
  }
  if (response.retry_after_ms)
    out << ", \"retry_after_ms\": " << *response.retry_after_ms;
  if (response.elapsed_ms) {
    out << ", \"elapsed_ms\": ";
    write_json_number(*response.elapsed_ms, out);
  }
  out << "}\n";
}

std::uint64_t seed_from_request_id(std::string_view id) {
  // FNV-1a 64-bit over the id bytes...
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : id) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  // ...then the SplitMix64 finalizer, the same mixer Rng::stream uses, so
  // near-identical ids ("job-1", "job-2") land on unrelated seeds.
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  // Seed 0 is fine for util::Rng, but keep away from the CLI default 1 so a
  // request id never silently collides with hand-written configs.
  return h;
}

}  // namespace mocos::serve
