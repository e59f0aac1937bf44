#include "serve/wire.h"

#include "data/integrity.h"

namespace domd {
namespace {

StatusOr<Date> DateMember(const JsonValue& object, const std::string& key,
                          bool required) {
  const JsonValue* member = object.Find(key);
  if (member == nullptr || member->is_null()) {
    if (required) {
      return Status::InvalidArgument("missing date member \"" + key + "\"");
    }
    return Date();
  }
  if (!member->is_string()) {
    return Status::InvalidArgument("member \"" + key +
                                   "\" must be an ISO date string");
  }
  return Date::Parse(member->string_value());
}

/// Reads integer member `key` into *out through the checked
/// JsonValue::Integer<T>, leaving *out (its default) when absent: a
/// non-integral, out-of-range or above-2^53 value is INVALID_ARGUMENT
/// rather than an undefined double-to-integer cast.
template <typename T>
Status IntegerMember(const JsonValue& object, const std::string& key,
                     T* out) {
  auto value = object.Integer<T>(key, *out);
  if (!value.ok()) return value.status();
  *out = *value;
  return Status::OK();
}

}  // namespace

StatusOr<Avail> AvailFromJson(const JsonValue& object) {
  if (!object.is_object()) {
    return Status::InvalidArgument("\"avail\" must be an object");
  }
  Avail avail;
  DOMD_RETURN_IF_ERROR(IntegerMember(object, "id", &avail.id));
  DOMD_RETURN_IF_ERROR(IntegerMember(object, "ship_id", &avail.ship_id));
  auto status = AvailStatusFromString(object.StringOr("status", "ongoing"));
  if (!status.ok()) return status.status();
  avail.status = *status;

  auto planned_start = DateMember(object, "planned_start", /*required=*/true);
  if (!planned_start.ok()) return planned_start.status();
  avail.planned_start = *planned_start;
  auto planned_end = DateMember(object, "planned_end", /*required=*/true);
  if (!planned_end.ok()) return planned_end.status();
  avail.planned_end = *planned_end;
  auto actual_start = DateMember(object, "actual_start", /*required=*/true);
  if (!actual_start.ok()) return actual_start.status();
  avail.actual_start = *actual_start;
  const JsonValue* actual_end = object.Find("actual_end");
  if (actual_end != nullptr && !actual_end->is_null()) {
    auto parsed = DateMember(object, "actual_end", /*required=*/true);
    if (!parsed.ok()) return parsed.status();
    avail.actual_end = *parsed;
  }

  DOMD_RETURN_IF_ERROR(
      IntegerMember(object, "ship_class", &avail.ship_class));
  DOMD_RETURN_IF_ERROR(IntegerMember(object, "rmc_id", &avail.rmc_id));
  avail.ship_age_years = object.NumberOr("ship_age_years", 0);
  DOMD_RETURN_IF_ERROR(
      IntegerMember(object, "avail_type", &avail.avail_type));
  DOMD_RETURN_IF_ERROR(IntegerMember(object, "homeport", &avail.homeport));
  DOMD_RETURN_IF_ERROR(IntegerMember(object, "prior_avail_count",
                                     &avail.prior_avail_count));
  avail.contract_value_musd = object.NumberOr("contract_value_musd", 0);
  DOMD_RETURN_IF_ERROR(IntegerMember(object, "crew_size", &avail.crew_size));
  return avail;
}

StatusOr<Rcc> RccFromJson(const JsonValue& object) {
  if (!object.is_object()) {
    return Status::InvalidArgument("each rcc must be an object");
  }
  Rcc rcc;
  DOMD_RETURN_IF_ERROR(IntegerMember(object, "id", &rcc.id));
  DOMD_RETURN_IF_ERROR(IntegerMember(object, "avail_id", &rcc.avail_id));
  auto type = RccTypeFromCode(object.StringOr("type", "G"));
  if (!type.ok()) return type.status();
  rcc.type = *type;

  const JsonValue* swlin = object.Find("swlin");
  if (swlin == nullptr) {
    return Status::InvalidArgument("missing rcc member \"swlin\"");
  }
  if (swlin->is_string()) {
    auto parsed = Swlin::Parse(swlin->string_value());
    if (!parsed.ok()) return parsed.status();
    rcc.swlin = *parsed;
  } else if (swlin->is_number()) {
    const auto code = swlin->AsInteger<std::int64_t>("swlin");
    if (!code.ok()) return code.status();
    auto parsed = Swlin::FromInt(*code);
    if (!parsed.ok()) return parsed.status();
    rcc.swlin = *parsed;
  } else {
    return Status::InvalidArgument("\"swlin\" must be a string or integer");
  }

  auto creation = DateMember(object, "creation_date", /*required=*/true);
  if (!creation.ok()) return creation.status();
  rcc.creation_date = *creation;
  const JsonValue* settled = object.Find("settled_date");
  if (settled != nullptr && !settled->is_null()) {
    auto parsed = DateMember(object, "settled_date", /*required=*/true);
    if (!parsed.ok()) return parsed.status();
    rcc.settled_date = *parsed;
  }
  rcc.settled_amount = object.NumberOr("settled_amount", 0);
  return rcc;
}

StatusOr<std::vector<IngestMutation>> ParseIngestMutations(
    const JsonValue& request) {
  std::vector<IngestMutation> mutations;
  const JsonValue* avails = request.Find("avails");
  if (avails != nullptr) {
    if (!avails->is_array()) {
      return Status::InvalidArgument("\"avails\" must be an array");
    }
    for (const JsonValue& item : avails->items()) {
      auto avail = AvailFromJson(item);
      if (!avail.ok()) return avail.status();
      mutations.push_back(MakeAvailUpsert(std::move(*avail)));
    }
  }
  const JsonValue* rccs = request.Find("rccs");
  if (rccs != nullptr) {
    if (!rccs->is_array()) {
      return Status::InvalidArgument("\"rccs\" must be an array");
    }
    for (const JsonValue& item : rccs->items()) {
      auto rcc = RccFromJson(item);
      if (!rcc.ok()) return rcc.status();
      if (rcc->avail_id == 0) {
        return Status::InvalidArgument(
            "ingest rcc " + std::to_string(rcc->id) +
            " has no \"avail_id\" member");
      }
      mutations.push_back(MakeRccUpsert(std::move(*rcc)));
    }
  }
  if (mutations.empty()) {
    return Status::InvalidArgument(
        "ingest request has no \"avails\" or \"rccs\" to apply");
  }
  return mutations;
}

StatusOr<ScoreRequest> ParseScoreRequest(const JsonValue& request) {
  if (!request.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  const JsonValue* avail = request.Find("avail");
  if (avail == nullptr) {
    return Status::InvalidArgument("request has no \"avail\" member");
  }
  ScoreRequest score;
  auto parsed_avail = AvailFromJson(*avail);
  if (!parsed_avail.ok()) return parsed_avail.status();
  score.avail = std::move(*parsed_avail);

  const JsonValue* rccs = request.Find("rccs");
  if (rccs != nullptr) {
    if (!rccs->is_array()) {
      return Status::InvalidArgument("\"rccs\" must be an array");
    }
    score.rccs.reserve(rccs->items().size());
    for (const JsonValue& item : rccs->items()) {
      auto rcc = RccFromJson(item);
      if (!rcc.ok()) return rcc.status();
      score.rccs.push_back(std::move(*rcc));
    }
  }
  score.t_star = request.NumberOr("t_star", 100.0);
  DOMD_RETURN_IF_ERROR(IntegerMember(request, "top_k", &score.top_k));

  // Shared integrity gate: reject at parse time anything the training
  // pipeline's dataset checks would refuse (zero planned duration, RCCs
  // predating the actual start, ...) — such rows would otherwise reach
  // LogicalTime's division by planned_duration() and score NaN features.
  DOMD_RETURN_IF_ERROR(CheckRequestIntegrity(score.avail, score.rccs));
  return score;
}

std::optional<double> RequestDeadlineMs(const JsonValue& request) {
  const double ms = request.NumberOr("deadline_ms", 0);
  if (ms > 0) return ms;
  return std::nullopt;
}

JsonValue PredictionToJson(const ServePrediction& prediction,
                           double latency_ms) {
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("avail_id",
          JsonValue::Number(static_cast<double>(prediction.avail_id)));
  out.Set("t_star", JsonValue::Number(prediction.t_star));
  out.Set("estimate_days", JsonValue::Number(prediction.estimate_days));
  out.Set("band_low", JsonValue::Number(prediction.band_low));
  out.Set("band_high", JsonValue::Number(prediction.band_high));
  out.Set("num_steps",
          JsonValue::Number(static_cast<double>(prediction.num_steps)));
  out.Set("bundle_version", JsonValue::String(prediction.bundle_version));
  out.Set("latency_ms", JsonValue::Number(latency_ms));
  JsonValue features = JsonValue::Array();
  for (const FeatureContribution& contribution : prediction.top_features) {
    JsonValue feature = JsonValue::Object();
    feature.Set("name", JsonValue::String(contribution.feature_name));
    feature.Set("contribution", JsonValue::Number(contribution.contribution));
    features.Append(std::move(feature));
  }
  out.Set("top_features", std::move(features));
  return out;
}

JsonValue ErrorToJson(const Status& status) {
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(false));
  out.Set("code", JsonValue::String(StatusCodeToString(status.code())));
  out.Set("error", JsonValue::String(status.message()));
  return out;
}

JsonValue StatsToJson(const ServeStatsSnapshot& stats) {
  JsonValue counters = JsonValue::Object();
  const auto set = [&counters](const char* key, std::uint64_t value) {
    counters.Set(key, JsonValue::Number(static_cast<double>(value)));
  };
  set("submitted", stats.submitted);
  set("accepted", stats.accepted);
  set("rejected_overload", stats.rejected_overload);
  set("rejected_shutdown", stats.rejected_shutdown);
  set("expired_deadline", stats.expired_deadline);
  set("completed_ok", stats.completed_ok);
  set("completed_error", stats.completed_error);
  set("batches", stats.batches);
  set("batched_requests", stats.batched_requests);
  set("swaps", stats.swaps);
  set("swap_failures", stats.swap_failures);
  set("batch_failures", stats.batch_failures);
  set("breaker_opens", stats.breaker_opens);
  set("rejected_breaker", stats.rejected_breaker);
  set("queue_depth_hwm", stats.queue_depth_hwm);
  set("queue_depth", stats.queue_depth);

  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("bundle_version", JsonValue::String(stats.bundle_version));
  out.Set("breaker_state",
          JsonValue::String(BreakerStateToString(stats.breaker)));
  out.Set("stats", std::move(counters));
  return out;
}

}  // namespace domd
