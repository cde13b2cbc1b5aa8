// Package storecommon holds the pieces shared by the three storage engines:
// the Azure-style error model, the documented service limits (“scalability
// targets”), resource-naming validation, ETag generation and token-bucket
// rate limiting.
package storecommon

import (
	"errors"
	"fmt"
)

// Code is an Azure storage error code, matching the REST error-code strings
// of the 2011-era service.
type Code string

// Error codes used across the services.
const (
	CodeServerBusy              Code = "ServerBusy"
	CodeInternalError           Code = "InternalError"
	CodeInvalidInput            Code = "InvalidInput"
	CodeOutOfRangeInput         Code = "OutOfRangeInput"
	CodeResourceNotFound        Code = "ResourceNotFound"
	CodeResourceAlreadyExists   Code = "ResourceAlreadyExists"
	CodeConditionNotMet         Code = "ConditionNotMet"
	CodeContainerNotFound       Code = "ContainerNotFound"
	CodeContainerAlreadyExists  Code = "ContainerAlreadyExists"
	CodeBlobNotFound            Code = "BlobNotFound"
	CodeBlobAlreadyExists       Code = "BlobAlreadyExists"
	CodeInvalidBlockID          Code = "InvalidBlockId"
	CodeInvalidBlockList        Code = "InvalidBlockList"
	CodeInvalidPageRange        Code = "InvalidPageRange"
	CodeBlockCountExceedsLimit  Code = "BlockCountExceedsLimit"
	CodeRequestBodyTooLarge     Code = "RequestBodyTooLarge"
	CodeLeaseAlreadyPresent     Code = "LeaseAlreadyPresent"
	CodeLeaseIDMissing          Code = "LeaseIdMissing"
	CodeLeaseIDMismatch         Code = "LeaseIdMismatchWithLeaseOperation"
	CodeLeaseNotPresent         Code = "LeaseNotPresentWithLeaseOperation"
	CodeQueueNotFound           Code = "QueueNotFound"
	CodeQueueAlreadyExists      Code = "QueueAlreadyExists"
	CodeMessageNotFound         Code = "MessageNotFound"
	CodeMessageTooLarge         Code = "MessageTooLarge"
	CodePopReceiptMismatch      Code = "PopReceiptMismatch"
	CodeInvalidVisibility       Code = "InvalidVisibilityTimeout"
	CodeTableNotFound           Code = "TableNotFound"
	CodeTableAlreadyExists      Code = "TableAlreadyExists"
	CodeEntityNotFound          Code = "EntityNotFound"
	CodeEntityAlreadyExists     Code = "EntityAlreadyExists"
	CodeEntityTooLarge          Code = "EntityTooLarge"
	CodePropertyLimitExceeded   Code = "TooManyProperties"
	CodeUpdateConditionNotMet   Code = "UpdateConditionNotSatisfied"
	CodeInvalidQuery            Code = "InvalidQuery"
	CodeAccountBandwidthLimit   Code = "AccountBandwidthExceeded"
	CodeOperationTimedOut       Code = "OperationTimedOut"
	CodeInvalidResourceName     Code = "InvalidResourceName"
	CodeOutOfCapacity           Code = "InsufficientAccountPermissions"
	CodeBatchPartitionMismatch  Code = "CommandsInBatchActOnDifferentPartitions"
	CodeBatchTooManyOperations  Code = "InvalidNumberOfBatchOperations"
	CodeBatchDuplicateRowKey    Code = "InvalidDuplicateRow"
	CodeSnapshotNotFound        Code = "SnapshotNotFound"
	CodeInstanceUnavailable     Code = "RoleInstanceUnavailable"
	CodeUnsupportedHTTPVerb     Code = "UnsupportedHttpVerb"
	CodeInvalidURI              Code = "InvalidUri"
	CodeMissingRequiredHeader   Code = "MissingRequiredHeader"
	CodeAuthenticationFailed    Code = "AuthenticationFailed"
	CodeAccountTransactionLimit Code = "AccountTransactionRateExceeded"

	// Fault-model codes (package faults). ServerUnavailable is returned
	// while a partition server is inside an unavailability window;
	// ConnectionReset is a transport-level failure (the TCP connection died
	// mid-transfer, so no HTTP status ever arrived — Status is 0).
	CodeServerUnavailable Code = "ServerUnavailable"
	CodeConnectionReset   Code = "ConnectionReset"

	// Partition-map protocol code (package partitionmgr): the addressed
	// partition server no longer owns the key's range. The client must
	// refresh its cached partition map and reissue — transient by
	// definition, since the authoritative map always has an owner.
	CodePartitionMoved Code = "PartitionMoved"

	// A query parameter parsed but lies outside its documented range
	// (numofmessages outside 1–32), or did not parse as a number at all.
	CodeOutOfRangeQueryParameterValue Code = "OutOfRangeQueryParameterValue"
)

// Error is the storage error type surfaced by every engine and service
// operation. Status carries the HTTP status the REST layer maps it to.
type Error struct {
	Code    Code
	Status  int
	Message string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s (%d): %s", e.Code, e.Status, e.Message)
}

// Errf builds an *Error with a formatted message.
func Errf(code Code, status int, format string, args ...any) *Error {
	return &Error{Code: code, Status: status, Message: fmt.Sprintf(format, args...)}
}

// asError returns the *Error in err's chain, or nil. Nearly every call
// brings nil or a bare *Error (the predicates below run after every
// operation, successful ones included) and those are answered by a type
// assertion; only a wrapped error reaches errors.As, whose target escapes
// and is therefore allocated whatever err holds.
func asError(err error) *Error {
	if err == nil {
		return nil
	}
	if se, ok := err.(*Error); ok {
		return se
	}
	var se *Error
	errors.As(err, &se)
	return se
}

// CodeOf extracts the storage error code from err, or "" if err is not a
// storage error.
func CodeOf(err error) Code {
	if se := asError(err); se != nil {
		return se.Code
	}
	return ""
}

// StatusOf extracts the HTTP status from err, or 500 for unknown errors and
// 0 for nil.
func StatusOf(err error) int {
	if err == nil {
		return 0
	}
	if se := asError(err); se != nil {
		return se.Status
	}
	return 500
}

// IsServerBusy reports whether err is a throttle rejection (ServerBusy or
// one of the account-level rate errors). Clients are expected to back off
// and retry, which is exactly what the paper's benchmark does (sleep one
// second, retry).
func IsServerBusy(err error) bool {
	switch CodeOf(err) {
	case CodeServerBusy, CodeAccountTransactionLimit, CodeAccountBandwidthLimit:
		return true
	}
	return false
}

// IsTransient reports whether err is a transient infrastructure fault —
// a timed-out request, a 500 from a partition server, a dropped
// connection, or a server inside an unavailability window. Transient
// faults are expected to clear on their own; clients should retry with
// backoff. Throttle rejections (IsServerBusy) are deliberately excluded:
// they signal overload, not failure, and carry their own retry guidance.
func IsTransient(err error) bool {
	switch CodeOf(err) {
	case CodeInternalError, CodeOperationTimedOut, CodeConnectionReset,
		CodeServerUnavailable, CodeInstanceUnavailable, CodePartitionMoved:
		return true
	}
	return false
}

// IsRetriable reports whether a client may safely re-issue the operation:
// either a throttle rejection (back off per the scalability targets) or a
// transient fault (back off exponentially). Errors that reflect request
// or state problems — not-found, conflicts, precondition failures,
// validation errors — are not retriable: reissuing cannot succeed.
func IsRetriable(err error) bool {
	return IsServerBusy(err) || IsTransient(err)
}

// IsNotFound reports whether err denotes a missing resource of any kind.
func IsNotFound(err error) bool {
	switch CodeOf(err) {
	case CodeResourceNotFound, CodeContainerNotFound, CodeBlobNotFound,
		CodeQueueNotFound, CodeMessageNotFound, CodeTableNotFound,
		CodeEntityNotFound, CodeSnapshotNotFound:
		return true
	}
	return false
}

// IsConflict reports whether err denotes an already-existing resource.
func IsConflict(err error) bool {
	switch CodeOf(err) {
	case CodeResourceAlreadyExists, CodeContainerAlreadyExists,
		CodeBlobAlreadyExists, CodeQueueAlreadyExists,
		CodeTableAlreadyExists, CodeEntityAlreadyExists:
		return true
	}
	return false
}

// IsPreconditionFailed reports whether err is an ETag/condition failure.
func IsPreconditionFailed(err error) bool {
	switch CodeOf(err) {
	case CodeConditionNotMet, CodeUpdateConditionNotMet, CodePopReceiptMismatch:
		return true
	}
	return false
}
